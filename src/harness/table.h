// Minimal aligned-text table printer for bench output.
#ifndef SRC_HARNESS_TABLE_H_
#define SRC_HARNESS_TABLE_H_

#include <string>
#include <vector>

namespace duet {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Renders with column alignment and a header separator.
  std::string Render() const;
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a fraction as a percentage, e.g. 0.42 -> "42%".
std::string Pct(double fraction);
// Formats a double with the given precision.
std::string Num(double value, int precision = 2);

}  // namespace duet

#endif  // SRC_HARNESS_TABLE_H_
