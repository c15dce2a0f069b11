#include "src/harness/table.h"

#include <algorithm>
#include <cstdio>

#include "src/util/format.h"

namespace duet {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      line += "| ";
      line += row[c];
      line.append(widths[c] - row[c].size() + 1, ' ');
    }
    line += "|\n";
    return line;
  };
  std::string out = render_row(headers_);
  std::string sep;
  for (size_t c = 0; c < headers_.size(); ++c) {
    sep += "|";
    sep.append(widths[c] + 2, '-');
  }
  sep += "|\n";
  out += sep;
  for (const auto& row : rows_) {
    out += render_row(row);
  }
  return out;
}

void TextTable::Print() const { fputs(Render().c_str(), stdout); }

std::string Pct(double fraction) { return StrFormat("%.0f%%", fraction * 100.0); }

std::string Num(double value, int precision) {
  return StrFormat("%.*f", precision, value);
}

}  // namespace duet
