#include "src/harness/calibrate.h"

#include <cmath>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/format.h"

namespace duet {

namespace {

// Bisection bracket and step count. The bracket is a generous fixed ceiling
// rather than the unthrottled probe's ops/sec: 11 halvings narrow it to
// ~2 ops/s, which converges just as fast.
constexpr double kMinRate = 0.1;
constexpr double kMaxRate = 4000.0;
constexpr int kBisectionSteps = 11;
// A probe checks after each slice of its window whether it can stop.
constexpr uint64_t kProbeSlices = 64;

// One profiling run's result. A stopped run ended early: `util` is then a
// lower bound on what the full window would have measured. `unpaced` counts
// the leading watched rates at which the run would have been the same.
struct Probe {
  double util = 0;
  bool stopped = false;
  size_t unpaced = 0;
};

// Runs the workload alone, with a warmup of a fifth of the window so the
// cache reaches a steady mix, then measures best-effort utilization over
// `profile_window`: the busy time over the window, as
// BlockDevice::BestEffortUtilizationSince computes it. The window runs in
// kProbeSlices slices (RunUntil in steps fires exactly the events one
// RunUntil would), and after each the same expression on the busy time so
// far goes to `settled`. The busy counter only grows, so that bound never
// falls and never exceeds the final value. Once `settled` holds for the
// bound it holds for the final value too, and the probe stops. The workload
// watches `watch` (FilebenchWorkload::WatchRates), lower rates a later step
// may probe with the same `settled`. Each probe reports into its own
// throwaway observability context, so where it stops never shows in the
// caller's metrics or trace.
template <typename Settled>
Probe RunProbe(const StackConfig& stack, const WorkloadConfig& workload,
               SimDuration profile_window, Settled settled,
               std::vector<double> watch = {}) {
  obs::ObsContext probe_obs;
  obs::ObsScope scope(&probe_obs);
  CowRig rig(stack, workload);
  auto busy = [&rig] {
    return rig.device().stats().busy[static_cast<int>(IoClass::kBestEffort)];
  };
  SimDuration warmup = profile_window / 5;
  if (!watch.empty()) {
    rig.workload().WatchRates(std::move(watch));
  }
  rig.workload().Start();
  rig.loop().RunUntil(warmup);
  SimDuration busy_at_start = busy();
  Probe probe;
  for (uint64_t k = 1; k <= kProbeSlices; ++k) {
    rig.loop().RunUntil(warmup + profile_window * k / kProbeSlices);
    probe.util = static_cast<double>(busy() - busy_at_start) /
                 static_cast<double>(profile_window);
    if (k < kProbeSlices && settled(probe.util)) {
      probe.stopped = true;
      break;
    }
  }
  rig.workload().Stop();
  probe.unpaced = rig.workload().unpaced_watched_rates();
  return probe;
}

}  // namespace

double MeasureUtilization(const StackConfig& stack, const WorkloadConfig& workload,
                          SimDuration profile_window) {
  return RunProbe(stack, workload, profile_window, [](double) { return false; }).util;
}

CalibratedRate CalibrateRate(const StackConfig& stack, const WorkloadConfig& base,
                             double target_util, SimDuration profile_window) {
  CalibratedRate out;
  if (target_util <= 0) {
    return out;
  }
  // Natural maximum with the unthrottled closed loop. It is only used when
  // the target is at or above it, so the probe stops once it provably is not.
  WorkloadConfig config = base;
  config.ops_per_sec = 0;
  Probe max = RunProbe(stack, config, profile_window,
                       [target_util](double bound) { return target_util < bound - 0.01; });
  ++out.probes;
  if (!max.stopped && target_util >= max.util - 0.01) {
    out.unthrottled = true;
    out.achieved_util = max.util;
    return out;
  }
  // Bisect the rate. A probe stops once its error provably reaches 0.015:
  // the step then neither converges nor raises `lo`, whatever the rest of
  // the window would have measured.
  struct Step {
    double rate;
    double err;    // utilization minus target; a lower bound when stopped
    bool stopped;
  };
  auto settled = [target_util](double bound) { return bound - target_util >= 0.015; };
  std::vector<Step> steps;
  double lo = kMinRate;
  double hi = kMaxRate;
  bool converged = false;
  // The last probe, and how many of the next mids it stands for.
  Probe last;
  size_t reusable = 0;
  for (int iter = 0; iter < kBisectionSteps && !converged; ++iter) {
    double mid = (lo + hi) / 2;
    if (reusable > 0) {
      // The previous step lowered `hi` and the probe watched this mid: a run
      // here would have been the same run, and stopped where it stopped.
      --reusable;
      ++out.reused;
    } else {
      // While steps lower `hi`, `lo` stays, so the next mids are known now.
      std::vector<double> watch;
      double h = mid;
      for (int later = iter + 1; later < kBisectionSteps; ++later) {
        h = (lo + h) / 2;
        watch.push_back(h);
      }
      config.ops_per_sec = mid;
      last = RunProbe(stack, config, profile_window, settled, std::move(watch));
      reusable = last.unpaced;
      ++out.probes;
    }
    double err = last.util - target_util;
    steps.push_back(Step{mid, err, last.stopped});
    if (std::abs(err) < 0.015) {
      converged = true;
    } else if (err < 0) {
      lo = mid;
      reusable = 0;
    } else {
      hi = mid;
    }
  }
  // The step with the least |error|, earliest first; the bracket ceiling at
  // error 1 wins if none is below that.
  auto best = [&steps] {
    Step winner{kMaxRate, 1.0, false};
    for (const Step& s : steps) {
      if (std::abs(s.err) < std::abs(winner.err)) {
        winner = s;
      }
    }
    return winner;
  };
  // A converged step's error is below 0.015 and a stopped step's is not, so
  // then no stopped step can win. Otherwise re-measure in full, least bound
  // first, every stopped step whose true error could still be the least.
  while (!converged) {
    Step* next = nullptr;
    for (Step& s : steps) {
      if (s.stopped && (next == nullptr || s.err < next->err)) {
        next = &s;
      }
    }
    if (next == nullptr || next->err > std::abs(best().err)) {
      break;
    }
    config.ops_per_sec = next->rate;
    next->err = MeasureUtilization(stack, config, profile_window) - target_util;
    next->stopped = false;
    ++out.probes;
  }
  Step winner = best();
  out.ops_per_sec = winner.rate;
  out.achieved_util = target_util + winner.err;
  return out;
}

RateTable::RateTable(std::string cache_path) : cache_path_(std::move(cache_path)) {
  FILE* f = fopen(cache_path_.c_str(), "r");
  if (f == nullptr) {
    return;
  }
  char key[512];
  double ops = 0;
  int unthrottled = 0;
  double achieved = 0;
  while (fscanf(f, "%511s %lf %d %lf", key, &ops, &unthrottled, &achieved) == 4) {
    CalibratedRate rate;
    rate.ops_per_sec = ops;
    rate.unthrottled = unthrottled != 0;
    rate.achieved_util = achieved;
    cache_.emplace(key, rate);
  }
  fclose(f);
}

RateTable::~RateTable() {
  if (cache_path_.empty() || !dirty_) {
    return;
  }
  FILE* f = fopen(cache_path_.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  for (const auto& [key, rate] : cache_) {
    fprintf(f, "%s %.17g %d %.17g\n", key.c_str(), rate.ops_per_sec,
            rate.unthrottled, rate.achieved_util);
  }
  fclose(f);
}

const CalibratedRate& RateTable::Get(const StackConfig& stack,
                                     const WorkloadConfig& base, double target_util) {
  using ull = unsigned long long;
  // The bindings name every field of both configs, so adding a field stops
  // this from compiling until the key takes it in or says why it does not.
  // Not keyed: the stack's data_bytes and mean_file_size reach a probe only
  // through the workload's file_count and mean_file_size, a probe runs for
  // its own profile window rather than the stack's, and ops_per_sec is the
  // output.
  [[maybe_unused]] const auto& [device, scheduler, capacity_blocks, data_bytes,
                                cache_pages, window, idle_grace, stack_mean_file_size] =
      stack;
  [[maybe_unused]] const auto& [personality, file_count, mean_file_size, coverage,
                                cluster_covered, skewed, zipf_s, ops_per_sec, think_time,
                                append_size, fragmented_fraction, seed, subdirs,
                                partial_read_fraction, data_dir, log_path] = base;
  std::string key = StrFormat(
      "%d|%d|%llu|%llu|%llu|%s|%llu|%llu|%.17g|%d|%d|%.17g|%llu|%llu|%.17g|%llu|"
      "%llu|%.17g|%s|%s|%.17g",
      static_cast<int>(device), static_cast<int>(scheduler),
      static_cast<ull>(capacity_blocks), static_cast<ull>(cache_pages),
      static_cast<ull>(idle_grace), PersonalityName(personality),
      static_cast<ull>(file_count), static_cast<ull>(mean_file_size), coverage,
      cluster_covered, skewed, zipf_s, static_cast<ull>(think_time),
      static_cast<ull>(append_size), fragmented_fraction, static_cast<ull>(seed),
      static_cast<ull>(subdirs), partial_read_fraction, data_dir.c_str(),
      log_path.c_str(), target_util);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, CalibrateRate(stack, base, target_util)).first;
    dirty_ = true;
  }
  return it->second;
}

}  // namespace duet
