// Small statistics helper for experiment reporting: running mean/variance and
// 95% confidence intervals (the paper reports these for cleaning time).
// Distributions use obs::LogHistogram.
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstdint>

namespace duet {

// Welford's online mean/variance accumulator.
class RunningStats {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;  // sample variance (n-1); 0 if count < 2
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

  // Half-width of the 95% confidence interval of the mean, using the normal
  // approximation (z = 1.96). Returns 0 for fewer than 2 samples.
  double ConfidenceInterval95() const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace duet

#endif  // SRC_UTIL_STATS_H_
