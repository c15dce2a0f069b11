// Experiment runners: build a stack, start the workload at a calibrated
// rate, run one or more maintenance tasks (baseline or Duet mode), and
// report the paper's metrics (Table 4). Rates come from a RateTable: RunAtUtil
// fills one in for a utilization target, and the runners never calibrate.
#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/harness/calibrate.h"
#include "src/harness/rig.h"
#include "src/obs/obs.h"
#include "src/tasks/backup.h"
#include "src/tasks/defrag_task.h"
#include "src/tasks/gc_task.h"
#include "src/tasks/rsync_task.h"
#include "src/tasks/scrubber.h"
#include "src/util/stats.h"

namespace duet {

enum class MaintKind { kScrub, kBackup, kDefrag };

const char* MaintKindName(MaintKind kind);

struct MaintenanceRunConfig {
  StackConfig stack;
  Personality personality = Personality::kWebserver;
  double coverage = 1.0;
  bool skewed = false;
  double target_util = 0.5;       // 0 = no foreground workload
  std::vector<MaintKind> tasks;
  bool use_duet = false;
  double fragmented_fraction = 0; // aged FS for defrag experiments
  // Informed cache replacement: evict already-processed pages first (§2's
  // PACMan-style extension).
  bool informed_eviction = false;
  uint64_t seed = 42;
  // The workload's rate when target_util > 0, as a CalibratedRate gives it
  // (RunAtUtil fills both in); unthrottled runs the closed loop. A negative
  // rate, the default, aborts the run: it was never filled in.
  double ops_per_sec = -1;
  bool unthrottled = false;
  // Fault injection: active when fault.faults_per_second > 0. A window of 0
  // means "span the whole run" (stack.window). The plan is derived from
  // fault_seed, independent of the workload seed, so the same failure
  // scenario replays across baseline/Duet comparisons.
  FaultPlanConfig fault{};
  uint64_t fault_seed = 1;
  // Observability context for the run. When null, the runner creates a
  // private context so every run starts with zeroed counters and a fresh
  // trace fingerprint. A caller-provided context must outlive the run and
  // accumulates across runs that share it.
  obs::ObsContext* obs = nullptr;
};

struct MaintenanceRunResult {
  // Indexed like MaintenanceRunConfig::tasks.
  std::vector<TaskStats> task_stats;
  bool all_finished = false;
  double measured_util = 0;       // best-effort utilization during the run
  // Read back from the run's registry (workload.ops.completed and the mean
  // of workload.op.latency_ns), so, like every registry-derived figure here,
  // they accumulate across runs that share a caller-provided context.
  uint64_t workload_ops = 0;
  double workload_latency_ms = 0;
  // Zero when no injector was configured; fault counts are fault.* metrics.
  uint32_t fault_fingerprint = 0;  // FaultPlan::Fingerprint() for replay
  uint64_t scrub_repaired = 0;
  uint64_t scrub_unrecoverable = 0;
  // End-of-run registry snapshot (the reporting source of truth) and the
  // streaming FNV-1a fingerprint of every trace event the run emitted.
  obs::MetricsSnapshot metrics;
  uint64_t trace_fingerprint = 0;

  // Table 4 metrics, read back from the registry snapshot (published by
  // RunMaintenance under tasks.total.*).
  uint64_t TotalTaskIo() const;
  uint64_t TotalWork() const;     // the without-Duet maintenance I/O
  // Table 4's "I/O saved": fraction of the baseline maintenance I/O avoided.
  double IoSavedFraction() const;
  double WorkCompletedFraction() const;
};

// Runs maintenance task(s) concurrently with the workload for the stack's
// window. Tasks run at idle I/O priority.
MaintenanceRunResult RunMaintenance(const MaintenanceRunConfig& config);

// RunMaintenance at the rate `rates` holds for config.target_util, which the
// table calibrates on first use with the workload the run builds.
MaintenanceRunResult RunAtUtil(RateTable& rates, MaintenanceRunConfig config);

// Paper Table 5: the highest target utilization, in `step_pct` percent steps
// from 0, at which every task still finishes within the window and the
// workload reaches the target (within 8 points, so a target above the
// workload's natural maximum does not count). Completion is monotone in
// utilization, so the search stops at the first level that fails. Returns
// -1 when even the idle device fails.
double FindMaxUtilization(RateTable& rates, MaintenanceRunConfig config,
                          int step_pct = 10);

// Rsync experiment (§6.2, Fig. 4): source workload runs unthrottled; rsync
// runs at normal priority until completion. Returns the task runtime.
struct RsyncRunResult {
  SimDuration runtime = 0;
  TaskStats stats;
  bool finished = false;
};
RsyncRunResult RunRsync(const StackConfig& stack, Personality personality,
                        double coverage, bool skewed, bool use_duet, uint64_t seed,
                        obs::ObsContext* obs = nullptr);

// GC experiment (§6.2, Table 6): fileserver on logfs at a given rate (0 runs
// the closed loop); measures per-segment cleaning time.
struct GcRunResult {
  RunningStats cleaning_time_ms;
  uint64_t segments_cleaned = 0;
  uint64_t scattered_writes = 0;
  uint64_t blocks_read = 0;    // synchronous cleaning reads performed
  uint64_t blocks_cached = 0;  // cleaning reads saved by the cache
  double measured_util = 0;
};
GcRunResult RunGc(const StackConfig& stack, bool use_duet, uint64_t seed,
                  double ops_per_sec, bool skewed = false,
                  obs::ObsContext* obs = nullptr);
// The workload RunGc runs, at rate 0: the base to calibrate its rate with.
// Calibration profiles it on a cowfs stack, which is close enough for the
// same device model.
WorkloadConfig GcWorkload(const StackConfig& stack, bool skewed, uint64_t seed);

}  // namespace duet

#endif  // SRC_HARNESS_RUNNER_H_
