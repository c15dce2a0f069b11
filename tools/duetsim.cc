// duetsim: command-line front end for the simulation harness. Runs one
// maintenance experiment with the given workload and prints a run report.
//
// Examples:
//   duetsim --tasks=scrub --util=0.5
//   duetsim --tasks=scrub,backup,defrag --duet --util=0.7 --personality=webproxy
//   duetsim --tasks=backup --duet --ssd --coverage=0.5 --skew
//   duetsim --rsync --duet --coverage=0.75
//   duetsim --gc --duet --util=0.6
//
// Flags (defaults in brackets):
//   --personality=webserver|webproxy|fileserver   [webserver]
//   --tasks=scrub,backup,defrag                   [scrub]
//   --util=<0..1>            target device utilization       [0.5]
//   --coverage=<0..1>        data overlap with maintenance   [1.0]
//   --duet                   opportunistic mode              [off]
//   --skew                   MS-trace-like file picking      [off]
//   --ssd                    SSD device model                [hdd]
//   --deadline               Deadline scheduler (no idle class)
//   --informed-eviction      Duet-aware cache replacement
//   --frag=<0..1>            fraction of files aged/fragmented [0]
//   --data-mb=<n>            file-set size                   [512]
//   --window-s=<n>           experiment window               [18]
//   --seed=<n>                                               [42]
//   --rsync                  run the rsync experiment instead
//   --gc                     run the logfs GC experiment instead
//
// Observability:
//   --trace=FILE             write the structured event trace as JSONL
//   --metrics=FILE           write the end-of-run metrics registry dump
//   --trace-fingerprint      print the run's FNV-1a trace fingerprint;
//                            identical configs+seeds print identical values
//
// Fault injection (off unless --fault-rate > 0):
//   --fault-rate=<f>         mean faults/second (Poisson)    [0]
//   --fault-seed=<n>         fault schedule seed             [1]
//   --fault-kinds=latent,rot,torn,transient  kinds to inject [latent,rot]
//
// Crash recovery (runs the crash rig instead of a maintenance experiment):
//   --crash-at=<ms>|op:<n>   pull the plug at a sim-time (ms) or at the Nth
//                            device op, then remount, fsck, and verify that
//                            no acknowledged-durable data was lost
//   --crash-seed=<n>         crash workload seed             [1]
//   --crash-fs=cow|log       file system under test          [cow]
//   --crash-tasks            run scrubber+backup with persisted cursors and
//                            report whether they resumed after recovery

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/harness/calibrate.h"
#include "src/harness/crash_rig.h"
#include "src/harness/runner.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"

using namespace duet;

namespace {

bool FlagValue(const char* arg, const char* name, std::string* out) {
  size_t len = strlen(name);
  if (strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

void Usage() {
  fprintf(stderr,
          "usage: duetsim [--tasks=scrub,backup,defrag] [--duet] [--util=0.5]\n"
          "               [--personality=webserver|webproxy|fileserver]\n"
          "               [--coverage=1.0] [--skew] [--ssd] [--deadline]\n"
          "               [--frag=0.1] [--informed-eviction] [--data-mb=512]\n"
          "               [--window-s=18] [--seed=42] [--rsync] [--gc]\n"
          "               [--fault-rate=0.5] [--fault-seed=1]\n"
          "               [--fault-kinds=latent,rot,torn,transient]\n"
          "               [--crash-at=<ms>|op:<n>] [--crash-seed=1]\n"
          "               [--crash-fs=cow|log] [--crash-tasks]\n"
          "               [--trace=FILE] [--metrics=FILE] [--trace-fingerprint]\n");
  exit(2);
}

// The workload's calibrated rate, and the profile runs it took: probes run
// and bisection steps that reused a probe instead.
void PrintCalibration(const CalibratedRate& rate, double target_util) {
  if (target_util <= 0) {
    printf("calibration: no workload at target 0%%");
  } else if (rate.unthrottled) {
    printf("calibration: unthrottled, target %.0f%% at or above the %.1f%% maximum",
           target_util * 100, rate.achieved_util * 100);
  } else {
    printf("calibration: %.3f ops/s for target %.0f%% (profiled %.1f%%)", rate.ops_per_sec,
           target_util * 100, rate.achieved_util * 100);
  }
  printf("; %d probes run, %d reused\n", rate.probes, rate.reused);
}

}  // namespace

int main(int argc, char** argv) {
  MaintenanceRunConfig config;
  config.stack = QuickStackConfig();
  config.tasks = {MaintKind::kScrub};
  bool run_rsync = false;
  bool run_gc = false;
  bool run_crash = false;
  CrashRunConfig crash_config;
  std::string trace_path;
  std::string metrics_path;
  bool print_fingerprint = false;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (strcmp(argv[i], "--duet") == 0) {
      config.use_duet = true;
    } else if (strcmp(argv[i], "--skew") == 0) {
      config.skewed = true;
    } else if (strcmp(argv[i], "--ssd") == 0) {
      config.stack.device = DeviceKind::kSsd;
    } else if (strcmp(argv[i], "--deadline") == 0) {
      config.stack.scheduler = SchedulerKind::kDeadline;
    } else if (strcmp(argv[i], "--informed-eviction") == 0) {
      config.informed_eviction = true;
    } else if (strcmp(argv[i], "--rsync") == 0) {
      run_rsync = true;
    } else if (strcmp(argv[i], "--gc") == 0) {
      run_gc = true;
    } else if (FlagValue(argv[i], "--personality", &value)) {
      if (value == "webserver") {
        config.personality = Personality::kWebserver;
      } else if (value == "webproxy") {
        config.personality = Personality::kWebproxy;
      } else if (value == "fileserver") {
        config.personality = Personality::kFileserver;
      } else {
        Usage();
      }
    } else if (FlagValue(argv[i], "--tasks", &value)) {
      config.tasks.clear();
      size_t start = 0;
      while (start < value.size()) {
        size_t comma = value.find(',', start);
        if (comma == std::string::npos) {
          comma = value.size();
        }
        std::string task = value.substr(start, comma - start);
        if (task == "scrub") {
          config.tasks.push_back(MaintKind::kScrub);
        } else if (task == "backup") {
          config.tasks.push_back(MaintKind::kBackup);
        } else if (task == "defrag") {
          config.tasks.push_back(MaintKind::kDefrag);
        } else {
          Usage();
        }
        start = comma + 1;
      }
    } else if (FlagValue(argv[i], "--util", &value)) {
      config.target_util = atof(value.c_str());
    } else if (FlagValue(argv[i], "--coverage", &value)) {
      config.coverage = atof(value.c_str());
    } else if (FlagValue(argv[i], "--frag", &value)) {
      config.fragmented_fraction = atof(value.c_str());
    } else if (FlagValue(argv[i], "--data-mb", &value)) {
      uint64_t mb = strtoull(value.c_str(), nullptr, 10);
      config.stack.data_bytes = mb * 1024 * 1024;
      config.stack.capacity_blocks = (config.stack.data_bytes / kPageSize) * 5 / 4;
      config.stack.cache_pages =
          std::max<uint64_t>(256, config.stack.data_bytes / kPageSize / 50);
    } else if (FlagValue(argv[i], "--window-s", &value)) {
      config.stack.window = Seconds(strtoull(value.c_str(), nullptr, 10));
    } else if (FlagValue(argv[i], "--seed", &value)) {
      config.seed = strtoull(value.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--crash-at", &value)) {
      run_crash = true;
      if (value.rfind("op:", 0) == 0) {
        crash_config.crash_at_op = strtoull(value.c_str() + 3, nullptr, 10);
        if (crash_config.crash_at_op == 0) {
          Usage();
        }
      } else {
        crash_config.crash_at_time = Millis(strtoull(value.c_str(), nullptr, 10));
        if (crash_config.crash_at_time == 0) {
          Usage();
        }
      }
    } else if (FlagValue(argv[i], "--crash-seed", &value)) {
      crash_config.seed = strtoull(value.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--crash-fs", &value)) {
      if (value == "cow") {
        crash_config.fs = CrashFsKind::kCow;
      } else if (value == "log") {
        crash_config.fs = CrashFsKind::kLog;
      } else {
        Usage();
      }
    } else if (strcmp(argv[i], "--crash-tasks") == 0) {
      crash_config.run_tasks = true;
    } else if (FlagValue(argv[i], "--fault-rate", &value)) {
      config.fault.faults_per_second = atof(value.c_str());
    } else if (FlagValue(argv[i], "--fault-seed", &value)) {
      config.fault_seed = strtoull(value.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--trace", &value)) {
      trace_path = value;
    } else if (FlagValue(argv[i], "--metrics", &value)) {
      metrics_path = value;
    } else if (strcmp(argv[i], "--trace-fingerprint") == 0) {
      print_fingerprint = true;
    } else if (FlagValue(argv[i], "--fault-kinds", &value)) {
      config.fault.kinds = 0;
      size_t start = 0;
      while (start < value.size()) {
        size_t comma = value.find(',', start);
        if (comma == std::string::npos) {
          comma = value.size();
        }
        std::string kind = value.substr(start, comma - start);
        if (kind == "latent") {
          config.fault.kinds |= kFaultLatent;
        } else if (kind == "rot") {
          config.fault.kinds |= kFaultBitRot;
        } else if (kind == "torn") {
          config.fault.kinds |= kFaultTornWrite;
        } else if (kind == "transient") {
          config.fault.kinds |= kFaultTransient;
        } else {
          Usage();
        }
        start = comma + 1;
      }
      if (config.fault.kinds == 0) {
        Usage();
      }
    } else {
      Usage();
    }
  }
  // Fault schedules span the whole experiment window.
  config.fault.window = config.stack.window;

  // One observability context for the whole invocation; the runners install
  // it around their stacks.
  obs::ObsContext obs_ctx;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = obs::JsonlTraceSink::Open(trace_path);
    if (trace_sink == nullptr) {
      fprintf(stderr, "duetsim: cannot open trace file %s\n", trace_path.c_str());
      return 2;
    }
    obs_ctx.trace.AddSink(trace_sink.get());
  }
  config.obs = &obs_ctx;
  // Deferred reporting shared by every experiment mode.
  auto finish_obs = [&]() {
    if (!metrics_path.empty()) {
      FILE* f = fopen(metrics_path.c_str(), "w");
      if (f == nullptr) {
        fprintf(stderr, "duetsim: cannot open metrics file %s\n",
                metrics_path.c_str());
        return false;
      }
      std::string dump = obs_ctx.metrics.DumpText();
      fwrite(dump.data(), 1, dump.size(), f);
      fclose(f);
    }
    if (print_fingerprint) {
      printf("trace fingerprint: %016llx (%llu events)\n",
             static_cast<unsigned long long>(obs_ctx.trace.Fingerprint()),
             static_cast<unsigned long long>(obs_ctx.trace.events_emitted()));
    }
    return true;
  };

  if (run_crash) {
    // Crash-recovery mode: the rig builds its own tiny stacks over the
    // observability context — the trace and metrics cover the workload, the
    // crash, the remount, and the replay.
    printf("duetsim: crash recovery on %s, seed %llu, crash at %s%llu%s\n\n",
           crash_config.fs == CrashFsKind::kCow ? "cowfs" : "logfs",
           static_cast<unsigned long long>(crash_config.seed),
           crash_config.crash_at_op != 0 ? "op " : "",
           crash_config.crash_at_op != 0
               ? static_cast<unsigned long long>(crash_config.crash_at_op)
               : static_cast<unsigned long long>(crash_config.crash_at_time /
                                                 kMillisecond),
           crash_config.crash_at_op != 0 ? "" : " ms");
    CrashRunResult r = RunCrashRecovery(crash_config, &obs_ctx);
    printf("workload: %llu writes issued, %llu syncs, %llu checkpoints; %s "
           "after %llu device ops\n",
           static_cast<unsigned long long>(r.writes_issued),
           static_cast<unsigned long long>(r.syncs_completed),
           static_cast<unsigned long long>(r.checkpoints_completed),
           r.crashed ? "crashed" : "plug pulled at window end",
           static_cast<unsigned long long>(r.ops_before_crash));
    printf("mount: %s; generation %llu, %llu blocks restored, %llu replayed, "
           "%llu discarded, %.2f ms\n",
           r.mount.status.ok() ? "ok" : r.mount.status.message().c_str(),
           static_cast<unsigned long long>(r.mount.generation),
           static_cast<unsigned long long>(r.mount.blocks_restored),
           static_cast<unsigned long long>(r.mount.blocks_replayed),
           static_cast<unsigned long long>(r.mount.blocks_discarded),
           static_cast<double>(r.mount.duration) / kMillisecond);
    printf("fsck: %llu blocks checked, %llu structural errors, %llu checksum "
           "errors\n",
           static_cast<unsigned long long>(r.fsck.blocks_checked),
           static_cast<unsigned long long>(r.fsck.structural_errors),
           static_cast<unsigned long long>(r.fsck.checksum_errors));
    printf("durability: %llu/%llu acked pages verified, %llu rolled back "
           "(unacked), %llu LOST\n",
           static_cast<unsigned long long>(r.verified_pages),
           static_cast<unsigned long long>(r.acked_pages),
           static_cast<unsigned long long>(r.rolled_back_pages),
           static_cast<unsigned long long>(r.lost_pages));
    if (crash_config.run_tasks) {
      printf("tasks: scrub resumed at block %llu; backup %s, %llu pages not "
             "re-streamed\n",
             static_cast<unsigned long long>(r.scrub_resume_cursor),
             r.backup_resumed ? "resumed its snapshot" : "restarted afresh",
             static_cast<unsigned long long>(r.backup_resumed_pages));
    }
    printf("\nverdict: %s\n", r.ok() ? "CONSISTENT" : "INCONSISTENT");
    if (!finish_obs()) {
      return 2;
    }
    return r.ok() ? 0 : 1;
  }

  printf("duetsim: %s on %s, %.0f MiB data, %.0f s window, target util %.0f%%, "
         "coverage %.0f%%%s%s\n\n",
         config.use_duet ? "Duet" : "baseline",
         config.stack.device == DeviceKind::kSsd ? "ssd" : "hdd",
         static_cast<double>(config.stack.data_bytes) / (1024.0 * 1024),
         ToSeconds(config.stack.window), config.target_util * 100,
         config.coverage * 100, config.skewed ? ", skewed" : "",
         config.stack.scheduler == SchedulerKind::kDeadline ? ", deadline" : "");

  if (run_rsync) {
    RsyncRunResult r = RunRsync(config.stack, config.personality, config.coverage,
                                config.skewed, config.use_duet, config.seed,
                                &obs_ctx);
    printf("rsync: %s in %.1f s; %llu pages read from disk, %llu saved by cache\n",
           r.finished ? "finished" : "DID NOT FINISH", ToSeconds(r.runtime),
           static_cast<unsigned long long>(r.stats.io_read_pages),
           static_cast<unsigned long long>(r.stats.saved_read_pages));
    if (!finish_obs()) {
      return 2;
    }
    return r.finished ? 0 : 1;
  }
  RateTable rates;
  if (run_gc) {
    const CalibratedRate& rate =
        rates.Get(config.stack, GcWorkload(config.stack, config.skewed, config.seed),
                  config.target_util);
    PrintCalibration(rate, config.target_util);
    GcRunResult r = RunGc(config.stack, config.use_duet, config.seed, rate.ops_per_sec,
                          config.skewed, &obs_ctx);
    printf("gc: %llu segments cleaned, avg %.1f ms; reads %llu disk / %llu cache; "
           "util %.0f%%; scattered writes %llu\n",
           static_cast<unsigned long long>(r.segments_cleaned),
           r.cleaning_time_ms.count() > 0 ? r.cleaning_time_ms.mean() : 0.0,
           static_cast<unsigned long long>(r.blocks_read),
           static_cast<unsigned long long>(r.blocks_cached),
           r.measured_util * 100,
           static_cast<unsigned long long>(r.scattered_writes));
    obs::MetricsSnapshot m = obs_ctx.metrics.Snapshot();
    printf("duet: %llu items fetched; peak descriptors %lld for %llu cache pages\n",
           static_cast<unsigned long long>(m.Value("duet.items.fetched")),
           static_cast<long long>(m.GaugeValue("duet.desc.peak")),
           static_cast<unsigned long long>(config.stack.cache_pages));
    if (!finish_obs()) {
      return 2;
    }
    return 0;
  }

  PrintCalibration(rates.Get(config.stack, MaintenanceWorkload(config), config.target_util),
                   config.target_util);
  MaintenanceRunResult result = RunAtUtil(rates, config);
  printf("measured utilization: %.0f%%   workload ops: %llu (%.2f ms avg)\n",
         result.measured_util * 100,
         static_cast<unsigned long long>(result.workload_ops),
         result.workload_latency_ms);
  for (size_t i = 0; i < config.tasks.size(); ++i) {
    const TaskStats& s = result.task_stats[i];
    printf("%-7s %-12s %5.1f%% done | io %llu pages | saved %llu pages\n",
           MaintKindName(config.tasks[i]),
           s.finished ? "finished" : "UNFINISHED", 100 * s.CompletionFraction(),
           static_cast<unsigned long long>(s.TotalIoPages()),
           static_cast<unsigned long long>(s.saved_read_pages + s.saved_write_pages));
    if (config.tasks[i] == MaintKind::kDefrag) {
      printf("        %llu files failed to defragment\n",
             static_cast<unsigned long long>(result.metrics.Value("tasks.defrag.failed")));
    }
  }
  printf("\ncombined: %.0f%% of maintenance I/O saved, %.0f%% of work completed\n",
         100 * result.IoSavedFraction(), 100 * result.WorkCompletedFraction());
  const obs::MetricsSnapshot& m = result.metrics;
  printf("duet: %llu hook invocations, %llu items fetched, %llu descriptors "
         "dropped; peak descriptors %lld for %llu cache pages\n",
         static_cast<unsigned long long>(m.Value("duet.hooks")),
         static_cast<unsigned long long>(m.Value("duet.items.fetched")),
         static_cast<unsigned long long>(m.Value("duet.events.dropped")),
         static_cast<long long>(m.GaugeValue("duet.desc.peak")),
         static_cast<unsigned long long>(config.stack.cache_pages));
  if (config.fault.faults_per_second > 0) {
    printf("\nfaults (plan %08x): %llu injected, %llu detected, %llu repaired, "
           "%llu masked, %llu unrecoverable, %llu undetected\n",
           result.fault_fingerprint,
           static_cast<unsigned long long>(m.Value("fault.injected")),
           static_cast<unsigned long long>(m.Value("fault.detected")),
           static_cast<unsigned long long>(m.Value("fault.repaired")),
           static_cast<unsigned long long>(m.Value("fault.masked")),
           static_cast<unsigned long long>(m.Value("fault.unrecoverable")),
           static_cast<unsigned long long>(UndetectedFaults(m)));
    printf("       read errors %llu, transient failures %llu, MTTD %.2f s; "
           "scrub repaired %llu, unrecoverable %llu\n",
           static_cast<unsigned long long>(m.Value("fault.read_errors")),
           static_cast<unsigned long long>(m.Value("fault.transient_failures")),
           MeanTimeToDetectSeconds(m),
           static_cast<unsigned long long>(result.scrub_repaired),
           static_cast<unsigned long long>(result.scrub_unrecoverable));
  }
  if (!finish_obs()) {
    return 2;
  }
  return result.all_finished ? 0 : 1;
}
