#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace duet {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ConfidenceInterval95() const {
  if (count_ < 2) {
    return 0;
  }
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

}  // namespace duet
