// Golden-trace determinism: the structured trace (and therefore its FNV-1a
// fingerprint) must be a pure function of the simulation inputs. Two runs of
// the full stack with identical configuration and seeds must produce
// byte-identical event streams; changing any seed must diverge them.

#include <gtest/gtest.h>

#include "src/harness/crash_rig.h"
#include "src/harness/rig.h"
#include "src/harness/runner.h"
#include "src/obs/obs.h"
#include "src/tasks/scrubber.h"

namespace duet {
namespace {

StackConfig TinyStack() {
  StackConfig stack;
  stack.capacity_blocks = 40'960;           // 160 MiB device
  stack.data_bytes = 128ull * 1024 * 1024;  // 128 MiB data
  stack.cache_pages = 656;                  // ~2%
  stack.window = Seconds(6);
  stack.mean_file_size = 256 * 1024;
  return stack;
}

MaintenanceRunConfig BaseConfig() {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.tasks = {MaintKind::kScrub};
  config.use_duet = true;
  config.target_util = 0.3;
  config.ops_per_sec = 40;  // fixed rate: no calibration runs
  config.seed = 42;
  return config;
}

TEST(GoldenTraceTest, SameSeedSameFingerprint) {
  MaintenanceRunResult first = RunMaintenance(BaseConfig());
  MaintenanceRunResult second = RunMaintenance(BaseConfig());
  EXPECT_NE(first.trace_fingerprint, 0u);
  EXPECT_EQ(first.trace_fingerprint, second.trace_fingerprint);
  // The registry snapshot is part of the determinism contract too.
  EXPECT_EQ(first.metrics.counters, second.metrics.counters);
  EXPECT_EQ(first.metrics.gauges, second.metrics.gauges);
}

TEST(GoldenTraceTest, DifferentSeedDivergesFingerprint) {
  MaintenanceRunConfig config = BaseConfig();
  MaintenanceRunResult first = RunMaintenance(config);
  config.seed = 43;
  MaintenanceRunResult second = RunMaintenance(config);
  EXPECT_NE(first.trace_fingerprint, second.trace_fingerprint);
}

TEST(GoldenTraceTest, CallerContextAccumulatesAcrossRuns) {
  obs::ObsContext ctx;
  MaintenanceRunConfig config = BaseConfig();
  config.obs = &ctx;
  MaintenanceRunResult first = RunMaintenance(config);
  uint64_t after_one = ctx.trace.Fingerprint();
  EXPECT_EQ(first.trace_fingerprint, after_one);
  MaintenanceRunResult second = RunMaintenance(config);
  // The shared context keeps folding: the second result's fingerprint covers
  // both runs and differs from the single-run value.
  EXPECT_NE(second.trace_fingerprint, after_one);
  EXPECT_EQ(second.trace_fingerprint, ctx.trace.Fingerprint());
  EXPECT_GE(ctx.metrics.Snapshot().Value("tasks.total.work"),
            first.metrics.Value("tasks.total.work") * 2);
}

TEST(GoldenTraceTest, FaultSeedReplayIsByteIdentical) {
  MaintenanceRunConfig config = BaseConfig();
  config.fault.faults_per_second = 1.0;
  config.fault.kinds = kFaultLatent | kFaultBitRot;
  config.fault_seed = 7;
  MaintenanceRunResult first = RunMaintenance(config);
  MaintenanceRunResult second = RunMaintenance(config);
  ASSERT_EQ(first.fault_fingerprint, second.fault_fingerprint);
  EXPECT_EQ(first.trace_fingerprint, second.trace_fingerprint);

  // A different fault schedule diverges the trace even though the workload
  // seed is unchanged.
  config.fault_seed = 8;
  MaintenanceRunResult third = RunMaintenance(config);
  EXPECT_NE(third.fault_fingerprint, first.fault_fingerprint);
  EXPECT_NE(third.trace_fingerprint, first.trace_fingerprint);
}

TEST(GoldenTraceTest, CrashRecoveryReplaysByteIdentical) {
  // A crash/recover cycle — workload, plug pull, remount, replay — must be as
  // deterministic as any other run: same config, same trace, same metrics.
  // This is what lets a failing torture point be replayed in isolation.
  for (CrashFsKind fs : {CrashFsKind::kCow, CrashFsKind::kLog}) {
    CrashRunConfig config;
    config.fs = fs;
    config.seed = 77;
    config.crash_at_time = Millis(333);

    obs::ObsContext a;
    RunCrashRecovery(config, &a);
    obs::ObsContext b;
    RunCrashRecovery(config, &b);
    EXPECT_NE(a.trace.Fingerprint(), obs::Tracer::kFnvOffset);  // events flowed
    EXPECT_EQ(a.trace.Fingerprint(), b.trace.Fingerprint());
    obs::MetricsSnapshot sa = a.metrics.Snapshot();
    obs::MetricsSnapshot sb = b.metrics.Snapshot();
    EXPECT_EQ(sa.counters, sb.counters);
    EXPECT_EQ(sa.gauges, sb.gauges);

    // A different workload seed must diverge the trace: the fingerprint is
    // sensitive, not vacuously stable.
    config.seed = 78;
    obs::ObsContext c;
    RunCrashRecovery(config, &c);
    EXPECT_NE(c.trace.Fingerprint(), a.trace.Fingerprint());
  }
}

TEST(GoldenTraceTest, RsyncAndGcRunnersAreDeterministic) {
  StackConfig stack = TinyStack();
  obs::ObsContext a;
  RunRsync(stack, Personality::kWebserver, 1.0, false, true, 42, &a);
  obs::ObsContext b;
  RunRsync(stack, Personality::kWebserver, 1.0, false, true, 42, &b);
  EXPECT_EQ(a.trace.Fingerprint(), b.trace.Fingerprint());

  obs::ObsContext c;
  RunGc(stack, /*use_duet=*/true, 42, /*ops_per_sec=*/40, /*skewed=*/false, &c);
  obs::ObsContext d;
  RunGc(stack, /*use_duet=*/true, 42, /*ops_per_sec=*/40, /*skewed=*/false, &d);
  EXPECT_EQ(c.trace.Fingerprint(), d.trace.Fingerprint());
  EXPECT_NE(c.trace.Fingerprint(), obs::Tracer::kFnvOffset);  // events flowed
}

// One cowfs stack with a Duet scrubber under a fixed-rate workload, built on
// `obs`; `seed` picks the workload.
struct ScrubStack {
  ScrubStack(obs::ObsContext& obs, uint64_t seed)
      : rig(TinyStack(),
            MakeWorkloadConfig(TinyStack(), Personality::kWebserver, /*coverage=*/0.5,
                               /*skewed=*/false, /*ops_per_sec=*/40, seed),
            obs),
        scrub(&rig.fs(), &rig.duet(), ScrubberConfig{.use_duet = true}) {
    scrub.Start();
    rig.workload().Start();
  }
  // Stops the run and checks the file system: fsck emits after the run, so
  // it shows where a stack's late events go.
  void Finish() {
    rig.workload().Stop();
    scrub.Stop();
    EXPECT_TRUE(rig.fs().CheckConsistency().clean());
  }

  CowRig rig;
  Scrubber scrub;
};

constexpr SimDuration kSlice = Millis(250);
constexpr SimDuration kRun = Seconds(2);

struct Report {
  uint64_t fingerprint;
  obs::MetricsSnapshot metrics;
};

Report SoloRun(uint64_t seed) {
  obs::ObsContext obs;
  {
    ScrubStack stack(obs, seed);
    stack.rig.loop().RunUntil(kRun);
    stack.Finish();
  }
  return Report{obs.trace.Fingerprint(), obs.metrics.Snapshot()};
}

// Two stacks with their own contexts, run in interleaved slices on one thread
// while an unrelated ambient scope stays open the whole time: each reports
// exactly what it reports alone, and the ambient context receives nothing.
TEST(ObsIsolationTest, InterleavedStacksReportOnlyIntoTheirOwnContexts) {
  Report solo_a = SoloRun(42);
  Report solo_b = SoloRun(43);
  ASSERT_NE(solo_a.fingerprint, solo_b.fingerprint);  // the stacks differ

  obs::ObsContext ambient;
  obs::ObsScope scope(&ambient);
  obs::TraceRing ring(1 << 16);
  obs::ObsContext a;
  obs::ObsContext b;
  a.trace.AddSink(&ring);
  {
    ScrubStack stack_a(a, 42);
    ScrubStack stack_b(b, 43);
    for (SimTime t = kSlice; t <= kRun; t += kSlice) {
      stack_a.rig.loop().RunUntil(t);
      stack_b.rig.loop().RunUntil(t);
    }
    ring.Clear();
    stack_a.Finish();
    stack_b.Finish();
  }
  int fsck_events = 0;
  ring.ForEach([&](const obs::TraceEvent& e) {
    fsck_events += e.kind == obs::TraceKind::kFsckRan ? 1 : 0;
  });
  EXPECT_EQ(fsck_events, 1);  // A's fsck only, into A's context

  EXPECT_EQ(a.trace.Fingerprint(), solo_a.fingerprint);
  EXPECT_EQ(b.trace.Fingerprint(), solo_b.fingerprint);
  obs::MetricsSnapshot snap_a = a.metrics.Snapshot();
  obs::MetricsSnapshot snap_b = b.metrics.Snapshot();
  EXPECT_EQ(snap_a.counters, solo_a.metrics.counters);
  EXPECT_EQ(snap_a.gauges, solo_a.metrics.gauges);
  EXPECT_EQ(snap_b.counters, solo_b.metrics.counters);
  EXPECT_EQ(snap_b.gauges, solo_b.metrics.gauges);
  EXPECT_EQ(ambient.trace.events_emitted(), 0u);
  EXPECT_EQ(ambient.metrics.metric_count(), 0u);
}

}  // namespace
}  // namespace duet
