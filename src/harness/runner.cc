#include "src/harness/runner.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace duet {

const char* MaintKindName(MaintKind kind) {
  switch (kind) {
    case MaintKind::kScrub:
      return "scrub";
    case MaintKind::kBackup:
      return "backup";
    case MaintKind::kDefrag:
      return "defrag";
  }
  return "unknown";
}

uint64_t MaintenanceRunResult::TotalTaskIo() const {
  return metrics.Value("tasks.total.io_pages");
}

uint64_t MaintenanceRunResult::TotalWork() const {
  return metrics.Value("tasks.total.work");
}

double MaintenanceRunResult::IoSavedFraction() const {
  // Table 4: maintenance I/O saved with Duet over the total maintenance I/O
  // without Duet. Only I/O that was actually *avoided* counts — work the
  // task never got to attempt within the window does not.
  uint64_t work = TotalWork();
  if (work == 0) {
    return 0;
  }
  uint64_t saved = std::min(metrics.Value("tasks.total.saved_pages"), work);
  return static_cast<double>(saved) / static_cast<double>(work);
}

double MaintenanceRunResult::WorkCompletedFraction() const {
  uint64_t work = TotalWork();
  if (work == 0) {
    return 1.0;
  }
  return static_cast<double>(metrics.Value("tasks.total.done")) /
         static_cast<double>(work);
}

WorkloadConfig MaintenanceWorkload(const MaintenanceRunConfig& config) {
  WorkloadConfig workload = MakeWorkloadConfig(
      config.stack, config.personality, config.coverage, config.skewed,
      /*ops_per_sec=*/0, config.seed);
  workload.fragmented_fraction = config.fragmented_fraction;
  return workload;
}

MaintenanceRunResult RunMaintenance(const MaintenanceRunConfig& config) {
  WorkloadConfig workload = MaintenanceWorkload(config);
  bool run_workload = config.target_util > 0;
  if (run_workload) {
    if (config.ops_per_sec < 0) {
      fprintf(stderr,
              "RunMaintenance: no workload rate for target utilization %.2f; "
              "run it through RunAtUtil\n",
              config.target_util);
      std::abort();
    }
    workload.ops_per_sec = config.unthrottled ? 0 : config.ops_per_sec;
  }

  obs::ObsContext local_obs;
  obs::ObsContext* obs = config.obs != nullptr ? config.obs : &local_obs;

  CowRig rig(config.stack, workload, *obs);
  if (config.informed_eviction) {
    rig.fs().cache().SetEvictionAdvisor(
        [&rig](InodeNo ino, PageIdx idx) {
          return rig.duet().ProcessedByAllSessions(ino, idx);
        });
  }

  // Fault injection: generate the deterministic schedule after the file set
  // is populated (the target filter skips unallocated blocks) and before the
  // clock starts.
  std::unique_ptr<FaultInjector> injector;
  if (config.fault.faults_per_second > 0) {
    FaultPlanConfig fc = config.fault;
    if (fc.window == 0) {
      fc.window = config.stack.window;
    }
    injector = std::make_unique<FaultInjector>(
        &rig.loop(),
        FaultPlan::Generate(config.fault_seed, fc, rig.fs().capacity_blocks()));
    rig.fs().AttachFaultInjector(injector.get());
    injector->Start();
  }

  // Instantiate the requested maintenance tasks.
  std::unique_ptr<Scrubber> scrub;
  std::unique_ptr<Backup> backup;
  std::unique_ptr<DefragTask> defrag;
  for (MaintKind kind : config.tasks) {
    switch (kind) {
      case MaintKind::kScrub: {
        ScrubberConfig c;
        c.use_duet = config.use_duet;
        scrub = std::make_unique<Scrubber>(&rig.fs(), &rig.duet(), c);
        break;
      }
      case MaintKind::kBackup: {
        BackupConfig c;
        c.use_duet = config.use_duet;
        backup = std::make_unique<Backup>(&rig.fs(), &rig.duet(), c);
        break;
      }
      case MaintKind::kDefrag: {
        DefragConfig c;
        c.use_duet = config.use_duet;
        defrag = std::make_unique<DefragTask>(&rig.fs(), &rig.duet(), c);
        break;
      }
    }
  }

  if (scrub != nullptr) {
    scrub->Start();
  }
  if (backup != nullptr) {
    backup->Start();
  }
  if (defrag != nullptr) {
    defrag->Start();
  }
  if (run_workload) {
    rig.workload().Start();
  }

  rig.loop().RunUntil(config.stack.window);

  MaintenanceRunResult result;
  result.measured_util = rig.device().BestEffortUtilizationSince(0, 0);
  result.workload_ops = obs->metrics.CounterValue("workload.ops.completed");
  if (const obs::LogHistogram* latency =
          obs->metrics.FindHistogram("workload.op.latency_ns")) {
    result.workload_latency_ms = latency->Mean() / kMillisecond;
  }
  if (injector != nullptr) {
    result.fault_fingerprint = injector->plan().Fingerprint();
  }
  if (scrub != nullptr) {
    result.scrub_repaired = scrub->blocks_repaired();
    result.scrub_unrecoverable = scrub->blocks_unrecoverable();
  }
  rig.workload().Stop();

  // Stop tasks first: Stop() finalizes accounting (e.g. the scrubber's
  // done-bitmap-derived savings) before releasing Duet sessions.
  if (scrub != nullptr) {
    scrub->Stop();
  }
  if (backup != nullptr) {
    backup->Stop();
  }
  if (defrag != nullptr) {
    defrag->Stop();
  }
  result.all_finished = true;
  for (MaintKind kind : config.tasks) {
    const TaskStats* stats = nullptr;
    switch (kind) {
      case MaintKind::kScrub:
        stats = &scrub->stats();
        break;
      case MaintKind::kBackup:
        stats = &backup->stats();
        break;
      case MaintKind::kDefrag:
        stats = &defrag->stats();
        break;
    }
    result.task_stats.push_back(*stats);
    result.all_finished = result.all_finished && stats->finished;
  }

  // Publish end-of-run totals so every reported number can be read back from
  // the registry (Table 4 arithmetic lives in the result methods above).
  uint64_t total_io = 0, total_work = 0, total_saved = 0, total_done = 0;
  for (const TaskStats& s : result.task_stats) {
    total_io += s.TotalIoPages();
    total_work += s.work_total;
    total_saved += s.saved_read_pages + s.saved_write_pages;
    total_done += std::min(s.work_done, s.work_total);
  }
  obs->metrics.GetCounter("tasks.total.io_pages")->Add(total_io);
  obs->metrics.GetCounter("tasks.total.work")->Add(total_work);
  obs->metrics.GetCounter("tasks.total.saved_pages")->Add(total_saved);
  obs->metrics.GetCounter("tasks.total.done")->Add(total_done);
  result.metrics = obs->metrics.Snapshot();
  result.trace_fingerprint = obs->trace.Fingerprint();
  return result;
}

MaintenanceRunResult RunAtUtil(RateTable& rates, MaintenanceRunConfig config) {
  if (config.target_util > 0) {
    const CalibratedRate& rate =
        rates.Get(config.stack, MaintenanceWorkload(config), config.target_util);
    config.ops_per_sec = rate.ops_per_sec;
    config.unthrottled = rate.unthrottled;
  }
  return RunMaintenance(config);
}

double FindMaxUtilization(RateTable& rates, MaintenanceRunConfig config, int step_pct) {
  double best = -1;
  for (int util_pct = 0; util_pct <= 100; util_pct += step_pct) {
    config.target_util = util_pct / 100.0;
    MaintenanceRunResult result = RunAtUtil(rates, config);
    bool reachable =
        util_pct == 0 || result.measured_util >= config.target_util - 0.08;
    if (result.all_finished && reachable) {
      best = config.target_util;
    } else if (util_pct > 0) {
      break;
    }
  }
  return best;
}

RsyncRunResult RunRsync(const StackConfig& stack, Personality personality,
                        double coverage, bool skewed, bool use_duet, uint64_t seed,
                        obs::ObsContext* obs) {
  WorkloadConfig workload =
      MakeWorkloadConfig(stack, personality, coverage, skewed, /*ops_per_sec=*/0, seed);
  obs::ObsContext local_obs;
  CowRig rig(stack, workload, obs != nullptr ? *obs : local_obs);

  // Destination: a second device + file system in the same simulation.
  BlockDevice dst_device(&rig.loop(), MakeDiskModel(stack), MakeScheduler(stack));
  CowFs dst_fs(&rig.loop(), &dst_device, stack.cache_pages);
  Result<InodeNo> dst_dir = dst_fs.Mkdir("/backup");
  assert(dst_dir.ok());
  (void)dst_dir;

  RsyncConfig config;
  config.hints = use_duet ? RsyncHints::kDuet : RsyncHints::kNone;
  config.source_dir = "/data";
  config.dest_dir = "/backup";
  RsyncTask task(&rig.fs(), &dst_fs, &rig.duet(), config);

  RsyncRunResult out;
  bool finished = false;
  SimTime started = rig.loop().now();
  task.Start([&] { finished = true; });
  rig.workload().Start();

  // Run until rsync completes (cap at 40x the window as a safety net).
  SimTime cap = started + 40 * stack.window;
  while (!finished && rig.loop().now() < cap) {
    rig.loop().RunUntil(rig.loop().now() + Seconds(1));
  }
  rig.workload().Stop();
  out.finished = finished;
  out.runtime = (finished ? task.stats().finished_at : rig.loop().now()) - started;
  out.stats = task.stats();
  task.Stop();
  return out;
}

WorkloadConfig GcWorkload(const StackConfig& stack, bool skewed, uint64_t seed) {
  return MakeWorkloadConfig(stack, Personality::kFileserver, /*coverage=*/1.0, skewed,
                            /*ops_per_sec=*/0, seed);
}

GcRunResult RunGc(const StackConfig& stack, bool use_duet, uint64_t seed,
                  double ops_per_sec, bool skewed, obs::ObsContext* obs) {
  WorkloadConfig workload = GcWorkload(stack, skewed, seed);
  workload.ops_per_sec = ops_per_sec;

  obs::ObsContext local_obs;
  LogRig rig(stack, workload, obs != nullptr ? *obs : local_obs);
  GcConfig config;
  config.use_duet = use_duet;
  config.wake_interval = Millis(100);
  config.idle_threshold = Millis(10);
  GcTask gc(&rig.fs(), &rig.duet(), config);
  gc.Start();
  rig.workload().Start();
  rig.loop().RunUntil(stack.window);
  rig.workload().Stop();

  GcRunResult out;
  out.cleaning_time_ms = gc.cleaning_time_ms();
  out.segments_cleaned = gc.segments_cleaned();
  out.scattered_writes = rig.fs().scattered_writes();
  out.blocks_read = gc.stats().io_read_pages;
  out.blocks_cached = gc.stats().saved_read_pages;
  out.measured_util = rig.device().BestEffortUtilizationSince(0, 0);
  gc.Stop();
  return out;
}

}  // namespace duet
