// §6.5 "Cold data placement": whether the data *not* accessed by the
// workload is clustered in its own region or interleaved with hot data has
// little effect — maintenance I/O runs in idle periods, so extra seeks occur
// only when switching between maintenance and workload anyway.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Ablation: cold data placement (scrub + webserver, 50% overlap)",
      "physical placement of cold data does not affect the results",
      stack);

  RateTable rates(BenchRateCachePath());
  TextTable table({"util", "placement", "I/O saved", "scrub finished",
                   "workload ops"});
  std::vector<double> utils{0.3, 0.5, 0.7};
  if (SmokeMode()) {
    utils = {0.5};
  }
  for (double util : utils) {
    for (bool clustered : {false, true}) {
      WorkloadConfig base =
          MakeWorkloadConfig(stack, Personality::kWebserver, 0.5, false, 0, 42);
      base.cluster_covered = clustered;
      const CalibratedRate& rate = rates.Get(stack, base, util);
      MaintenanceRunConfig config;
      config.stack = stack;
      config.personality = Personality::kWebserver;
      config.coverage = 0.5;
      config.target_util = util;
      config.ops_per_sec = rate.unthrottled ? 0 : rate.ops_per_sec;
      config.unthrottled = rate.unthrottled;
      config.tasks = {MaintKind::kScrub};
      config.use_duet = true;
      // RunMaintenance builds its own workload config; clustering is set via
      // the coverage/cluster knob below.
      WorkloadConfig workload = base;
      workload.ops_per_sec = config.unthrottled ? 0 : config.ops_per_sec;
      obs::ObsContext ctx;  // per-run counts
      obs::ObsScope scope(&ctx);
      CowRig rig(stack, workload);
      ScrubberConfig sc;
      sc.use_duet = true;
      Scrubber scrub(&rig.fs(), &rig.duet(), sc);
      scrub.Start();
      rig.workload().Start();
      rig.loop().RunUntil(stack.window);
      rig.workload().Stop();
      const TaskStats& stats = scrub.stats();
      double saved = stats.work_total > 0
                         ? static_cast<double>(stats.saved_read_pages) /
                               static_cast<double>(stats.work_total)
                         : 0;
      uint64_t ops = ctx.metrics.CounterValue("workload.ops.completed");
      table.AddRow({Pct(util), clustered ? "clustered" : "interleaved", Pct(saved),
                    stats.finished ? "yes" : "no", Num(static_cast<double>(ops), 0)});
      scrub.Stop();
      fflush(stdout);
    }
  }
  table.Print();
  return 0;
}
