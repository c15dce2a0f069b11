// Workload-rate calibration, mirroring the paper's methodology (§6.1.2):
// each Filebench personality is profiled alone (no maintenance) at different
// throttle settings to find the ops/sec rate that produces a target device
// utilization.
#ifndef SRC_HARNESS_CALIBRATE_H_
#define SRC_HARNESS_CALIBRATE_H_

#include <map>
#include <string>

#include "src/harness/rig.h"
#include "src/harness/stack_config.h"

namespace duet {

// Runs the workload alone for a profiling window and returns the measured
// best-effort device utilization (the iostat %util analogue). The profile
// builds its stack under a throwaway obs::ObsContext, so it leaves no
// counters or trace events in the caller's context.
double MeasureUtilization(const StackConfig& stack, const WorkloadConfig& workload,
                          SimDuration profile_window = Seconds(12));

// Finds the ops/sec rate at which the workload alone drives the device at
// `target_util` (0 < target_util < 1), via an 11-step bisection on the rate.
// Returns 0 for target 0 (workload off). A target at or above the
// workload's maximum achievable utilization returns 0 rate with
// `unthrottled` set.
//
// Exactness contract: the result is bit-for-bit the one a bisection over
// full-window MeasureUtilization probes returns. A probe stops early only
// once its busy time so far proves the step's outcome (the device's busy
// counter only grows); if the bisection ends unconverged, every stopped
// probe that could still hold the least error is re-measured in full.
struct CalibratedRate {
  // The workload's ops_per_sec: 0, the unthrottled closed loop, both for a
  // target of 0 (the caller runs no workload) and when `unthrottled` is set.
  double ops_per_sec = 0;
  bool unthrottled = false; // target at/above the natural maximum
  double achieved_util = 0;
  int probes = 0;           // profile runs made; 0 when read from a cache
};
CalibratedRate CalibrateRate(const StackConfig& stack, const WorkloadConfig& base,
                             double target_util,
                             SimDuration profile_window = Seconds(12));

// Memoizes calibration results across runs of a bench binary: calibration is
// deterministic given (stack, workload, target), so each combination is
// profiled once. The key holds the target and every stack and workload field
// a profile run reads, all but the workload's own ops_per_sec; Get names each
// field, so a field added to either config does not compile until it is
// keyed or excluded there.
class RateTable {
 public:
  RateTable() = default;
  // With a path, previously saved calibrations are loaded, and new ones are
  // appended on destruction — bench binaries share one cache file. Rates are
  // saved exactly: a loaded rate is the same double CalibrateRate returned.
  explicit RateTable(std::string cache_path);
  ~RateTable();

  const CalibratedRate& Get(const StackConfig& stack, const WorkloadConfig& base,
                            double target_util);

 private:
  std::string cache_path_;
  bool dirty_ = false;
  std::map<std::string, CalibratedRate> cache_;
};

}  // namespace duet

#endif  // SRC_HARNESS_CALIBRATE_H_
