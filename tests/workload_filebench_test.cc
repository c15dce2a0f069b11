#include "src/workload/filebench.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/cowfs/cowfs.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class FilebenchTest : public ::testing::Test {
 protected:
  FilebenchTest() : rig_(2'000'000, Micros(200)) {}

  WorkloadConfig BaseConfig(Personality p) {
    WorkloadConfig config;
    config.personality = p;
    config.file_count = 200;
    config.mean_file_size = 32 * 1024;
    config.seed = 7;
    return config;
  }

  uint64_t Count(const char* name) const { return rig_.obs.metrics.CounterValue(name); }

  SimRig rig_;
};

TEST_F(FilebenchTest, SetupPopulatesFileSet) {
  CowFs fs(&rig_.loop, &rig_.device, 1024);
  FilebenchWorkload wl(&fs, BaseConfig(Personality::kWebserver));
  ASSERT_TRUE(wl.Setup().ok());
  EXPECT_EQ(wl.covered_files(), 200u);
  EXPECT_GT(fs.allocated_blocks(), 200u);  // data exists on disk
  EXPECT_TRUE(fs.ns().Resolve("/data").ok());
  EXPECT_TRUE(fs.ns().Resolve("/weblog").ok());
}

TEST_F(FilebenchTest, CoverageLimitsTouchedFiles) {
  CowFs fs(&rig_.loop, &rig_.device, 1024);
  WorkloadConfig config = BaseConfig(Personality::kWebserver);
  config.coverage = 0.25;
  FilebenchWorkload wl(&fs, config);
  ASSERT_TRUE(wl.Setup().ok());
  EXPECT_EQ(wl.covered_files(), 50u);
  wl.Start();
  rig_.loop.RunUntil(Seconds(20));
  wl.Stop();
  // Only covered files (plus the log) may have cache pages.
  uint64_t files_touched = 0;
  fs.ns().WalkDepthFirst(fs.ns().root(), [&](const Inode& inode) {
    if (!inode.is_dir() && fs.cache().CachedPagesOfInode(inode.ino) > 0) {
      ++files_touched;
    }
    return true;
  });
  EXPECT_LE(files_touched, 51u);
  EXPECT_GT(Count("workload.ops.completed"), 0u);
}

TEST_F(FilebenchTest, WebserverReadWriteRatio) {
  CowFs fs(&rig_.loop, &rig_.device, 1024);
  FilebenchWorkload wl(&fs, BaseConfig(Personality::kWebserver));
  ASSERT_TRUE(wl.Setup().ok());
  wl.Start();
  rig_.loop.RunUntil(Seconds(60));
  wl.Stop();
  uint64_t reads = Count("workload.ops.read");
  uint64_t writes = Count("workload.ops.write");
  ASSERT_GT(writes, 0u);
  EXPECT_NEAR(static_cast<double>(reads) / static_cast<double>(writes), 10.0, 2.5);
  EXPECT_EQ(Count("workload.ops.create"), 0u);  // webserver never creates/deletes
  EXPECT_EQ(Count("workload.ops.delete"), 0u);
}

TEST_F(FilebenchTest, WebproxyReadWriteRatio) {
  CowFs fs(&rig_.loop, &rig_.device, 1024);
  FilebenchWorkload wl(&fs, BaseConfig(Personality::kWebproxy));
  ASSERT_TRUE(wl.Setup().ok());
  wl.Start();
  rig_.loop.RunUntil(Seconds(60));
  wl.Stop();
  uint64_t reads = Count("workload.ops.read");
  uint64_t writes = Count("workload.ops.write");
  ASSERT_GT(writes, 0u);
  EXPECT_NEAR(static_cast<double>(reads) / static_cast<double>(writes), 4.0, 1.2);
}

TEST_F(FilebenchTest, FileserverIsWriteHeavy) {
  CowFs fs(&rig_.loop, &rig_.device, 1024);
  FilebenchWorkload wl(&fs, BaseConfig(Personality::kFileserver));
  ASSERT_TRUE(wl.Setup().ok());
  wl.Start();
  rig_.loop.RunUntil(Seconds(60));
  wl.Stop();
  uint64_t reads = Count("workload.ops.read");
  uint64_t writes = Count("workload.ops.write");
  ASSERT_GT(reads, 0u);
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(reads), 2.0, 0.6);
  EXPECT_GT(Count("workload.ops.create"), 0u);
  EXPECT_GT(Count("workload.ops.delete"), 0u);
}

TEST_F(FilebenchTest, ThrottleControlsOpRate) {
  CowFs fs(&rig_.loop, &rig_.device, 1024);
  WorkloadConfig config = BaseConfig(Personality::kWebserver);
  config.ops_per_sec = 20;
  FilebenchWorkload wl(&fs, config);
  ASSERT_TRUE(wl.Setup().ok());
  wl.Start();
  rig_.loop.RunUntil(Seconds(100));
  wl.Stop();
  double rate = static_cast<double>(Count("workload.ops.completed")) / 100.0;
  EXPECT_NEAR(rate, 20.0, 4.0);
}

TEST_F(FilebenchTest, ThrottledRunsUseLessDevice) {
  CowFs fs_fast(&rig_.loop, &rig_.device, 1024);
  WorkloadConfig slow_cfg = BaseConfig(Personality::kWebserver);
  slow_cfg.ops_per_sec = 5;
  FilebenchWorkload slow(&fs_fast, slow_cfg);
  ASSERT_TRUE(slow.Setup().ok());
  slow.Start();
  rig_.loop.RunUntil(Seconds(50));
  slow.Stop();
  double util = rig_.device.BestEffortUtilizationSince(0, 0);
  EXPECT_LT(util, 0.5);
  EXPECT_GT(util, 0.0);
}

TEST_F(FilebenchTest, DeterministicForSameSeed) {
  uint64_t completed[2];
  for (int trial = 0; trial < 2; ++trial) {
    SimRig rig(2'000'000, Micros(200));
    CowFs fs(&rig.loop, &rig.device, 1024);
    FilebenchWorkload wl(&fs, BaseConfig(Personality::kFileserver));
    ASSERT_TRUE(wl.Setup().ok());
    wl.Start();
    rig.loop.RunUntil(Seconds(30));
    wl.Stop();
    completed[trial] = rig.obs.metrics.CounterValue("workload.ops.completed");
  }
  EXPECT_EQ(completed[0], completed[1]);
}

TEST_F(FilebenchTest, SkewedPickerConcentratesAccesses) {
  // Run uniform and skewed configurations for the same (throttled) op
  // budget and compare how many distinct files each touches.
  uint64_t touched[2] = {0, 0};
  for (int trial = 0; trial < 2; ++trial) {
    SimRig rig(2'000'000, Micros(200));
    CowFs fs(&rig.loop, &rig.device, 8192);
    WorkloadConfig config = BaseConfig(Personality::kWebserver);
    config.skewed = trial == 1;
    config.ops_per_sec = 40;
    FilebenchWorkload wl(&fs, config);
    ASSERT_TRUE(wl.Setup().ok());
    wl.Start();
    rig.loop.RunUntil(Seconds(10));
    wl.Stop();
    fs.ns().WalkDepthFirst(fs.ns().root(), [&](const Inode& inode) {
      if (!inode.is_dir() && fs.cache().CachedPagesOfInode(inode.ino) > 0) {
        ++touched[trial];
      }
      return true;
    });
    EXPECT_GT(rig.obs.metrics.CounterValue("workload.ops.completed"), 200u);
  }
  // The skewed (MS-trace-like, Fig. 1) picker concentrates accesses on far
  // fewer files than the uniform default.
  EXPECT_LT(touched[1], touched[0] * 3 / 4);
}

// Records when the workload first holds an op back: the completion after
// which the next op is issued later than that completion.
class HeldBackSink : public obs::TraceSink {
 public:
  void OnTraceEvent(const obs::TraceEvent& event) override {
    if (event.kind == obs::TraceKind::kOpCompleted) {
      last_completed_ = event.at;
    } else if (event.kind == obs::TraceKind::kOpIssued && last_completed_.has_value() &&
               event.at > *last_completed_ && !first_held_back_after_.has_value()) {
      first_held_back_after_ = last_completed_;
    }
  }
  std::optional<SimTime> first_held_back_after() const { return first_held_back_after_; }

 private:
  std::optional<SimTime> last_completed_;
  std::optional<SimTime> first_held_back_after_;
};

struct PacedRun {
  uint64_t fingerprint = 0;
  SimDuration busy = 0;
  size_t unpaced = 0;
  std::optional<SimTime> first_held_back_after;
};

// The webserver on a small cache for `window` at `rate`, watching `watch`,
// then on for `tail` more, past where a held-back op issues.
PacedRun RunPaced(double rate, std::vector<double> watch, SimDuration window,
                  SimDuration tail = 0) {
  HeldBackSink sink;
  SimRig rig(200'000, Millis(5));
  rig.obs.trace.AddSink(&sink);
  CowFs fs(&rig.loop, &rig.device, 64);
  WorkloadConfig config;
  config.personality = Personality::kWebserver;
  config.file_count = 200;
  config.mean_file_size = 32 * 1024;
  config.seed = 1;
  config.ops_per_sec = rate;
  FilebenchWorkload wl(&fs, config);
  EXPECT_TRUE(wl.Setup().ok());
  if (!watch.empty()) {
    wl.WatchRates(std::move(watch));
  }
  wl.Start();
  rig.loop.RunUntil(window);
  PacedRun run;
  run.fingerprint = rig.obs.trace.Fingerprint();
  run.busy = rig.device.stats().busy[static_cast<int>(IoClass::kBestEffort)];
  run.unpaced = wl.unpaced_watched_rates();
  rig.loop.RunUntil(window + tail);
  wl.Stop();
  run.first_held_back_after = sink.first_held_back_after();
  return run;
}

// Shadow pacing is exact: each watched rate reported unpaced runs the very
// same simulation, and the first one reported paced does hold an op back.
TEST(FilebenchPacingTest, UnpacedWatchedRatesReplayTheRun) {
  constexpr SimDuration kWindow = Seconds(4);
  const std::vector<double> watch = {1000, 500, 250, 125, 62.5, 31.25};
  PacedRun probe = RunPaced(2000, watch, kWindow);
  // Watching changes nothing in the run itself.
  PacedRun plain = RunPaced(2000, {}, kWindow);
  EXPECT_EQ(probe.fingerprint, plain.fingerprint);
  EXPECT_EQ(probe.busy, plain.busy);
  EXPECT_EQ(plain.unpaced, 0u);
  // The rig is sized so the answer is neither none nor all. An unpaced run
  // keeps the device busy for the whole window, so the fingerprint, not the
  // busy time, is what tells the runs apart.
  ASSERT_GT(probe.unpaced, 0u);
  ASSERT_LT(probe.unpaced, watch.size());
  for (size_t i = 0; i < probe.unpaced; ++i) {
    SCOPED_TRACE(testing::Message() << "rate " << watch[i]);
    PacedRun real = RunPaced(watch[i], {}, kWindow);
    EXPECT_EQ(real.fingerprint, probe.fingerprint);
    EXPECT_EQ(real.busy, probe.busy);
  }
  PacedRun paced = RunPaced(watch[probe.unpaced], {}, kWindow, Seconds(60));
  ASSERT_TRUE(paced.first_held_back_after.has_value());
  SimTime held_back_after = *paced.first_held_back_after;
  EXPECT_LE(held_back_after, kWindow);
  EXPECT_NE(paced.fingerprint, probe.fingerprint);
  // The probe reports that rate paced at exactly that completion: not
  // before it runs, and from the moment it has run.
  EXPECT_GT(RunPaced(2000, watch, held_back_after - 1).unpaced, probe.unpaced);
  EXPECT_EQ(RunPaced(2000, watch, held_back_after).unpaced, probe.unpaced);
}

}  // namespace
}  // namespace duet
