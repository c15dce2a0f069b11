// End-to-end error path: FaultInjector → BlockDevice → CowFs → Scrubber.
//
// Directed single-fault schedules (FaultPlan::FromEvents) pin down each leg
// of the fault lifecycle — injection, detection, repair, masking — and a
// replayed harness run checks that identical (seed, plan) inputs produce
// identical end-of-run counters.
#include <gtest/gtest.h>

#include "src/cowfs/cowfs.h"
#include "src/fault/fault_injector.h"
#include "src/harness/runner.h"
#include "src/tasks/scrubber.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : rig_(100'000, Micros(100)),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/128) {}

  InodeNo MakeFile(const char* path, uint64_t pages) {
    return *fs_.PopulateFile(path, pages * kPageSize);
  }

  // Builds an injector for a hand-authored schedule and wires it into the
  // stack (device consultation + corruption sink + allocation filter).
  void Arm(std::vector<FaultEvent> events, FaultPlanConfig config = {}) {
    injector_ = std::make_unique<FaultInjector>(
        &rig_.loop, FaultPlan::FromEvents(config, std::move(events)));
    fs_.AttachFaultInjector(injector_.get());
    injector_->Start();
  }

  void Scrub(ScrubberConfig config = {}) {
    Scrubber scrub(&fs_, nullptr, config);
    bool finished = false;
    scrub.Start([&] { finished = true; });
    rig_.loop.Run();
    ASSERT_TRUE(finished);
    scrub_repaired_ = scrub.blocks_repaired();
    scrub_unrecoverable_ = scrub.blocks_unrecoverable();
    scrub_retries_ = scrub.transient_retries();
    scrub_read_errors_ = scrub.read_errors();
    scrub_checksum_errors_ = scrub.checksum_errors();
  }

  uint64_t Count(const char* name) const { return rig_.obs.metrics.CounterValue(name); }

  SimRig rig_;
  CowFs fs_;
  std::unique_ptr<FaultInjector> injector_;
  uint64_t scrub_repaired_ = 0;
  uint64_t scrub_unrecoverable_ = 0;
  uint64_t scrub_retries_ = 0;
  uint64_t scrub_read_errors_ = 0;
  uint64_t scrub_checksum_errors_ = 0;
};

TEST_F(FaultInjectionTest, LatentErrorDetectedAndRepairedByScrub) {
  InodeNo ino = MakeFile("/f", 8);
  BlockNo victim = *fs_.Bmap(ino, 3);
  Arm({{.at = Millis(1), .kind = kFaultLatent, .block = victim}});
  rig_.loop.RunUntil(Millis(2));
  EXPECT_EQ(Count("fault.injected"), 1u);
  EXPECT_TRUE(injector_->HasActiveFault(victim));

  Scrub();
  EXPECT_EQ(Count("fault.detected"), 1u);
  EXPECT_EQ(Count("fault.repaired"), 1u);  // the injected fault became "repaired"
  EXPECT_EQ(Count("fault.unrecoverable"), 0u);
  EXPECT_EQ(UndetectedFaults(rig_.obs.metrics.Snapshot()), 0u);
  EXPECT_GT(Count("fault.read_errors"), 0u);
  EXPECT_GT(MeanTimeToDetectSeconds(rig_.obs.metrics.Snapshot()), 0.0);
  EXPECT_EQ(scrub_repaired_, 1u);
  EXPECT_EQ(scrub_read_errors_, 1u);
  EXPECT_FALSE(injector_->HasActiveFault(victim));
  // The repaired block reads clean again.
  EXPECT_TRUE(fs_.BlockChecksumOk(victim));
}

TEST_F(FaultInjectionTest, BitRotCaughtByChecksumAndRepairedFromMirror) {
  InodeNo ino = MakeFile("/f", 8);
  BlockNo victim = *fs_.Bmap(ino, 5);
  Arm({{.at = Millis(1), .kind = kFaultBitRot, .block = victim}});
  Scrub();
  EXPECT_EQ(Count("fault.injected"), 1u);
  EXPECT_EQ(Count("fault.detected"), 1u);
  EXPECT_EQ(Count("fault.repaired"), 1u);
  EXPECT_EQ(Count("fault.read_errors"), 0u);  // silent corruption: the device read "succeeded"
  EXPECT_EQ(scrub_checksum_errors_, 1u);
  EXPECT_EQ(scrub_repaired_, 1u);
  EXPECT_TRUE(fs_.BlockChecksumOk(victim));
}

TEST_F(FaultInjectionTest, RotOfBothCopiesIsUnrecoverable) {
  InodeNo ino = MakeFile("/f", 8);
  BlockNo victim = *fs_.Bmap(ino, 2);
  Arm({{.at = Millis(1), .kind = kFaultBitRot, .block = victim,
        .both_copies = true}});
  Scrub();
  EXPECT_EQ(Count("fault.detected"), 1u);
  EXPECT_EQ(Count("fault.repaired"), 0u);
  EXPECT_EQ(Count("fault.unrecoverable"), 1u);
  EXPECT_EQ(scrub_unrecoverable_, 1u);
  EXPECT_TRUE(injector_->HasActiveFault(victim));
}

TEST_F(FaultInjectionTest, TornWriteAppliedOnRewriteAndRepairedByScrub) {
  InodeNo ino = MakeFile("/f", 4);
  BlockNo victim = *fs_.Bmap(ino, 0);
  Arm({{.at = Millis(1), .kind = kFaultTornWrite, .block = victim}});
  rig_.loop.RunUntil(Millis(2));
  EXPECT_EQ(Count("fault.torn_armed"), 1u);
  EXPECT_EQ(Count("fault.injected"), 0u);  // armed, nothing applied yet

  // The tear fires on the next device write that covers the armed sector.
  // (A COW overwrite relocates the page, so drive the rewrite at the device
  // layer — firmware semantics are physical-block, not file-offset.)
  IoRequest rewrite;
  rewrite.block = victim;
  rewrite.count = 1;
  rewrite.dir = IoDir::kWrite;
  rewrite.io_class = IoClass::kBestEffort;
  rig_.device.Submit(std::move(rewrite));
  rig_.loop.Run();
  ASSERT_EQ(Count("fault.injected"), 1u);
  // Checksum of the intended data, garbage on the platter.
  EXPECT_FALSE(fs_.BlockChecksumOk(victim));

  Scrub();
  EXPECT_EQ(Count("fault.detected"), 1u);
  EXPECT_EQ(Count("fault.repaired"), 1u);
  EXPECT_EQ(scrub_repaired_, 1u);  // healed from the DUP mirror
  EXPECT_TRUE(fs_.BlockChecksumOk(victim));
}

TEST_F(FaultInjectionTest, FaultOnUnallocatedBlockIsSkipped) {
  MakeFile("/f", 4);
  Arm({{.at = Millis(1), .kind = kFaultLatent, .block = 90'000}});
  rig_.loop.RunUntil(Millis(2));
  EXPECT_EQ(Count("fault.injected"), 0u);
  EXPECT_EQ(Count("fault.skipped"), 1u);
}

TEST_F(FaultInjectionTest, FailedReadDoesNotPopulateCache) {
  InodeNo ino = MakeFile("/f", 4);
  BlockNo victim = *fs_.Bmap(ino, 1);
  Arm({{.at = Millis(1), .kind = kFaultLatent, .block = victim}});
  rig_.loop.RunUntil(Millis(2));

  FsIoResult result;
  fs_.Read(ino, 0, 4 * kPageSize, IoClass::kBestEffort,
           [&](const FsIoResult& r) { result = r; });
  rig_.loop.Run();
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.pages_failed, 1u);
  // Healthy pages are cached; the unread one must not be (a cached copy of
  // unverified content would mask the fault from every later reader).
  EXPECT_TRUE(fs_.cache().Contains(ino, 0));
  EXPECT_FALSE(fs_.cache().Contains(ino, 1));

  // The fault persists: a second read fails the same way.
  FsIoResult again;
  fs_.Read(ino, 0, 4 * kPageSize, IoClass::kBestEffort,
           [&](const FsIoResult& r) { again = r; });
  rig_.loop.Run();
  EXPECT_FALSE(again.status.ok());
}

TEST_F(FaultInjectionTest, RewriteBeforeDetectionMasksFault) {
  InodeNo ino = MakeFile("/f", 4);
  Arm({{.at = Millis(1), .kind = kFaultBitRot, .block = *fs_.Bmap(ino, 0)}});
  rig_.loop.RunUntil(Millis(2));
  ASSERT_EQ(Count("fault.injected"), 1u);
  // Overwrite the whole page: the COW flush lands on a fresh block and frees
  // the corrupt one before anything read it.
  fs_.Write(ino, 0, kPageSize, IoClass::kBestEffort, nullptr);
  fs_.writeback().Sync(nullptr);
  rig_.loop.Run();
  EXPECT_EQ(Count("fault.masked"), 1u);
  EXPECT_EQ(Count("fault.detected"), 0u);
  EXPECT_EQ(injector_->active_fault_count(), 0u);
}

TEST_F(FaultInjectionTest, TransientWindowRetriedByScrubber) {
  MakeFile("/f", 64);
  FaultPlanConfig config;
  config.transient_latency = Millis(5);
  config.transient_duration = Millis(50);
  Arm({{.at = Millis(1), .kind = kFaultTransient, .block = 0,
        .span = 100'000}},
      config);
  ScrubberConfig sc;
  sc.max_retries = 8;  // enough backoff budget to outlive the window
  Scrub(sc);
  EXPECT_EQ(Count("fault.transient_windows"), 1u);
  EXPECT_GT(Count("fault.transient_failures"), 0u);
  EXPECT_GT(scrub_retries_, 0u);
  // Once the window passed, every block was read and verified clean.
  EXPECT_EQ(scrub_read_errors_, 0u);
  EXPECT_EQ(scrub_checksum_errors_, 0u);
}

// Satellite property: a full maintenance run under fault injection is a pure
// function of its seeds — replaying it yields byte-identical fault schedules
// AND identical end-of-run counters.
TEST(FaultReplayProperty, IdenticalRunsProduceIdenticalCounters) {
  MaintenanceRunConfig config;
  config.stack.capacity_blocks = 40'960;
  config.stack.data_bytes = 128ull * 1024 * 1024;
  config.stack.cache_pages = 656;
  config.stack.window = Seconds(6);
  config.stack.mean_file_size = 256 * 1024;
  config.tasks = {MaintKind::kScrub};
  config.use_duet = true;
  config.ops_per_sec = 40;  // fixed rate: skip calibration
  config.fault.kinds = kFaultAllKinds;
  config.fault.faults_per_second = 3.0;
  config.fault.rot_both_copies_fraction = 0.2;
  config.fault_seed = 99;

  MaintenanceRunResult a = RunMaintenance(config);
  MaintenanceRunResult b = RunMaintenance(config);

  const obs::MetricsSnapshot& m = a.metrics;
  EXPECT_GT(m.Value("fault.injected"), 0u);
  EXPECT_GT(m.Value("fault.detected"), 0u);
  // Lifecycle accounting: only a detected fault can be repaired, and only an
  // injected one detected.
  EXPECT_LE(m.Value("fault.repaired"), m.Value("fault.detected"));
  EXPECT_LE(m.Value("fault.detected"), m.Value("fault.injected"));
  EXPECT_NE(a.fault_fingerprint, 0u);
  EXPECT_EQ(a.fault_fingerprint, b.fault_fingerprint);

  // Every counter (fault.* included: skipped, torn_armed, detect latency...)
  // replays identically.
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  EXPECT_EQ(a.scrub_repaired, b.scrub_repaired);
  EXPECT_EQ(a.scrub_unrecoverable, b.scrub_unrecoverable);
  EXPECT_EQ(a.workload_ops, b.workload_ops);

  // The strongest replay check: the structured traces — every injection,
  // detection, repair, I/O, and cache event, in order — are byte-identical.
  EXPECT_NE(a.trace_fingerprint, obs::Tracer::kFnvOffset);
  EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint);

  // And a different fault seed diverges the trace, not just the plan.
  config.fault_seed = 100;
  MaintenanceRunResult c = RunMaintenance(config);
  EXPECT_NE(c.fault_fingerprint, a.fault_fingerprint);
  EXPECT_NE(c.trace_fingerprint, a.trace_fingerprint);
}

// A different fault seed must change the schedule (no hidden coupling to the
// workload seed).
TEST(FaultReplayProperty, FaultSeedIndependentOfWorkloadSeed) {
  FaultPlanConfig config;
  config.kinds = kFaultAllKinds;
  config.faults_per_second = 4.0;
  config.window = Seconds(10);
  FaultPlan a = FaultPlan::Generate(1, config, 40'960);
  FaultPlan b = FaultPlan::Generate(2, config, 40'960);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

}  // namespace
}  // namespace duet
