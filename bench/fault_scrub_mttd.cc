// Fault detection latency: baseline vs Duet scrubbing under an identical
// injected-fault schedule, at equal foreground utilization.
//
// The scrubber loops continuous verification passes for the whole window.
// In Duet mode a pass skips blocks already verified by the workload's own
// reads, so each pass finishes sooner and the scan revisits every block more
// often — which is exactly what bounds the time from a fault's injection to
// its detection (MTTD). Both modes replay the same FaultPlan (the printed
// fingerprint is identical), so detected/repaired counts are comparable.

#include "bench/bench_common.h"
#include "src/fault/fault_injector.h"

using namespace duet;

namespace {

struct MttdRun {
  obs::MetricsSnapshot metrics;  // the run's own registry (fault.* counts)
  uint32_t fingerprint = 0;
  uint64_t passes = 0;       // completed scrub passes
  uint64_t scrub_io = 0;     // scrub device I/O (pages, reads + repairs)
  uint64_t repaired = 0;     // blocks the scrubber rewrote from a good copy
  uint64_t unrecoverable = 0;
  double measured_util = 0;
};

MttdRun RunMttd(StackConfig stack, bool use_duet, double ops_per_sec, uint64_t seed,
                uint64_t fault_seed, double fault_rate) {
  // Detection latency is governed by how often scrubbing re-covers the
  // device, so the run spans several scrub passes: faults arrive during the
  // first (calibrated) window, and the clock keeps going for three more so
  // every pass-period difference shows up in the MTTD.
  SimDuration fault_window = stack.window;
  stack.window = 4 * fault_window;
  // Half the files stay cold: the workload never re-reads them, so faults
  // landing there are detected only by the scan — their detection latency is
  // set by the pass period, which is exactly what Duet shortens. (Faults are
  // still injected uniformly over the whole device in both modes.)
  WorkloadConfig workload = MakeWorkloadConfig(stack, Personality::kWebserver,
                                               /*coverage=*/0.5, /*skewed=*/false,
                                               ops_per_sec, seed);
  obs::ObsContext ctx;  // per-run counts
  CowRig rig(stack, workload, ctx);

  FaultPlanConfig fc;
  fc.kinds = kFaultLatent | kFaultBitRot;
  fc.faults_per_second = fault_rate;
  fc.window = fault_window;
  FaultInjector injector(
      &rig.loop(),
      FaultPlan::Generate(fault_seed, fc, rig.fs().capacity_blocks()));
  rig.fs().AttachFaultInjector(&injector);
  injector.Start();

  ScrubberConfig sc;
  sc.use_duet = use_duet;
  Scrubber scrub(&rig.fs(), &rig.duet(), sc);

  MttdRun out;
  uint64_t completed_io = 0;
  // Continuous scrubbing: each finished pass immediately starts the next
  // (fresh Duet session, fresh done bitmap), until the window closes.
  std::function<void()> start_pass = [&] {
    scrub.Start([&] {
      ++out.passes;
      completed_io += scrub.stats().TotalIoPages();
      rig.loop().ScheduleAfter(Millis(10), [&] { start_pass(); });
    });
  };
  start_pass();
  rig.workload().Start();
  rig.loop().RunUntil(stack.window);
  rig.workload().Stop();
  uint64_t partial_io = scrub.stats().TotalIoPages();
  scrub.Stop();

  out.metrics = ctx.metrics.Snapshot();
  out.fingerprint = injector.plan().Fingerprint();
  out.scrub_io = completed_io + partial_io;
  out.repaired = scrub.blocks_repaired();  // cumulative across passes
  out.unrecoverable = scrub.blocks_unrecoverable();
  out.measured_util = rig.device().BestEffortUtilizationSince(0, 0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Fault scrubbing: mean time to detect (webserver workload)",
      "continuous Duet scrubbing re-covers the device more often than the "
      "baseline at the same foreground utilization, lowering MTTD",
      stack);

  const uint64_t kSeed = 42;
  const uint64_t kFaultSeed = 7;
  const double kFaultRate = 2.0;  // mean faults/second (latent + bit rot)

  RateTable rates(BenchRateCachePath());
  TextTable table({"util", "mode", "plan", "injected", "detected", "repaired",
                   "unrec", "MTTD (s)", "passes", "scrub I/O"});
  std::vector<double> utils{0.3, 0.5, 0.7};
  if (SmokeMode()) {
    utils = {0.5};
  }
  for (double util : utils) {
    WorkloadConfig base =
        MakeWorkloadConfig(stack, Personality::kWebserver, 0.5, false, 0, kSeed);
    const CalibratedRate& rate = rates.Get(stack, base, util);
    for (bool use_duet : {false, true}) {
      MttdRun r =
          RunMttd(stack, use_duet, rate.ops_per_sec, kSeed, kFaultSeed, kFaultRate);
      char plan[16];
      snprintf(plan, sizeof(plan), "%08x", r.fingerprint);
      char mttd[16];
      snprintf(mttd, sizeof(mttd), "%.2f", MeanTimeToDetectSeconds(r.metrics));
      table.AddRow({Pct(util), use_duet ? "duet" : "baseline", plan,
                    std::to_string(r.metrics.Value("fault.injected")),
                    std::to_string(r.metrics.Value("fault.detected")),
                    std::to_string(r.metrics.Value("fault.repaired")),
                    std::to_string(r.metrics.Value("fault.unrecoverable")), mttd,
                    std::to_string(r.passes), std::to_string(r.scrub_io)});
      fflush(stdout);
    }
  }
  table.Print();
  printf("\nidentical plan fingerprints per column pair = identical injected "
         "fault schedule (replay guarantee)\n");
  return 0;
}
