// MetricsRegistry: named counters, gauges, and log-scale histograms for
// every layer of the stack. Metric handles are registered once (typically at
// component construction) and updated with a single add on the hot path, so
// per-I/O instrumentation costs one pointer dereference and an increment.
//
// Names are hierarchical, dot-separated, lower-case: `<layer>.<noun>[.<verb>]`
// — e.g. `cache.evictions`, `duet.events.dropped`, `block.read.latency_us`.
// The registry iterates in name order, so dumps and snapshots are
// deterministic across runs.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace duet {
namespace obs {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t n) { value_ += n; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Log2-bucketed histogram over non-negative integer samples (latencies in
// us or ns, sizes in blocks). Bucket i holds samples whose bit width is
// i, i.e. [2^(i-1), 2^i); constant memory, O(1) record, percentile error
// bounded by the bucket ratio (2x) with linear interpolation inside buckets.
class LogHistogram {
 public:
  static constexpr int kBuckets = 65;  // bit widths 0..64

  void Record(uint64_t sample);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  // p in [0, 100]; interpolates within the containing bucket.
  double Percentile(double p) const;
  double P50() const { return Percentile(50); }
  double P95() const { return Percentile(95); }
  double P99() const { return Percentile(99); }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

// A point-in-time copy of every scalar metric (counters and gauges), used to
// carry a run's numbers out of a registry whose lifetime ends with the run.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;

  // Value of a counter (0 if absent) / gauge (0 if absent).
  uint64_t Value(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration: returns the existing metric when the name is already
  // registered, so independent components can share a metric. A name refers
  // to exactly one kind; re-registering under a different kind returns
  // nullptr (programming error, surfaced loudly in debug builds).
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  LogHistogram* GetHistogram(std::string_view name);

  // Lookup without creating; nullptr when absent or of a different kind.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const LogHistogram* FindHistogram(std::string_view name) const;

  // Counter value by name; 0 when absent (convenient for tests and dumps).
  uint64_t CounterValue(std::string_view name) const;

  MetricsSnapshot Snapshot() const;

  // One metric per line, sorted by name:
  //   counter <name> <value>
  //   gauge <name> <value>
  //   histogram <name> count=<n> sum=<s> min=<m> max=<M> p50=<..> p95=<..> p99=<..>
  std::string DumpText() const;
  // A single JSON object keyed by metric name (histograms nest an object).
  std::string DumpJson() const;

  uint64_t metric_count() const { return metrics_.size(); }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Metric {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogHistogram> histogram;
  };

  Metric* GetOrCreate(std::string_view name, Kind kind);
  const Metric* Find(std::string_view name, Kind kind) const;

  // std::map: handles are stable and iteration is name-ordered.
  std::map<std::string, Metric, std::less<>> metrics_;
};

}  // namespace obs
}  // namespace duet

#endif  // SRC_OBS_METRICS_H_
