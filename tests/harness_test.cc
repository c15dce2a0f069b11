#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/harness/calibrate.h"
#include "src/harness/runner.h"
#include "src/obs/obs.h"

namespace duet {
namespace {

// A tiny stack so each run takes milliseconds of wall time.
StackConfig TinyStack() {
  StackConfig stack;
  stack.capacity_blocks = 40'960;               // 160 MiB device
  stack.data_bytes = 128ull * 1024 * 1024;      // 128 MiB data
  stack.cache_pages = 656;                      // ~2%
  stack.window = Seconds(6);
  stack.mean_file_size = 256 * 1024;
  return stack;
}

TEST(CalibrateTest, MeasureUtilizationRespondsToRate) {
  StackConfig stack = TinyStack();
  WorkloadConfig slow = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 20, 1);
  WorkloadConfig fast = slow;
  fast.ops_per_sec = 120;
  double u_slow = MeasureUtilization(stack, slow, Seconds(8));
  double u_fast = MeasureUtilization(stack, fast, Seconds(8));
  EXPECT_GT(u_slow, 0.0);
  EXPECT_GT(u_fast, u_slow);
  EXPECT_LE(u_fast, 1.0);
}

TEST(CalibrateTest, CalibrateRateHitsTarget) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 0, 1);
  CalibratedRate rate = CalibrateRate(stack, base, 0.4, Seconds(8));
  ASSERT_FALSE(rate.unthrottled);
  EXPECT_NEAR(rate.achieved_util, 0.4, 0.05);
  // Verify independently.
  base.ops_per_sec = rate.ops_per_sec;
  EXPECT_NEAR(MeasureUtilization(stack, base, Seconds(8)), 0.4, 0.08);
}

TEST(CalibrateTest, ZeroTargetMeansNoWorkload) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 0, 1);
  CalibratedRate rate = CalibrateRate(stack, base, 0.0);
  EXPECT_EQ(rate.ops_per_sec, 0);
  EXPECT_FALSE(rate.unthrottled);
}

TEST(CalibrateTest, UnreachableTargetReportsUnthrottled) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 0, 1);
  CalibratedRate rate = CalibrateRate(stack, base, 0.9999, Seconds(6));
  EXPECT_TRUE(rate.unthrottled);
  EXPECT_GT(rate.achieved_util, 0.5);
}

// Each probe builds its rig on a throwaway context; a probe that fell back to
// Rig's default would report into the caller's ambient context.
TEST(CalibrateTest, ProbesLeaveTheCallersContextUntouched) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 0, 1);
  obs::ObsContext* ambient = obs::CurrentObs();
  uint64_t events = ambient->trace.events_emitted();
  uint64_t metrics = ambient->metrics.metric_count();
  CalibratedRate rate = CalibrateRate(stack, base, 0.4, Seconds(3));
  EXPECT_GT(rate.probes, 1);
  EXPECT_EQ(ambient->trace.events_emitted(), events);
  EXPECT_EQ(ambient->metrics.metric_count(), metrics);
}

// MeasureUtilization and CalibrateRate as they were before probes could stop
// early: every probe runs its full window in one RunUntil. The early-stopping
// version must match them bit for bit.
double ReferenceMeasureUtilization(const StackConfig& stack, const WorkloadConfig& workload,
                                   SimDuration profile_window) {
  CowRig rig(stack, workload);
  SimDuration warmup = profile_window / 5;
  rig.workload().Start();
  rig.loop().RunUntil(warmup);
  SimTime measure_start = rig.loop().now();
  SimDuration busy_at_start =
      rig.device().stats().busy[static_cast<int>(IoClass::kBestEffort)];
  rig.loop().RunUntil(warmup + profile_window);
  rig.workload().Stop();
  return rig.device().BestEffortUtilizationSince(measure_start, busy_at_start);
}

CalibratedRate ReferenceCalibrateRate(const StackConfig& stack, const WorkloadConfig& base,
                                      double target_util, SimDuration profile_window) {
  CalibratedRate out;
  if (target_util <= 0) {
    return out;
  }
  WorkloadConfig probe = base;
  probe.ops_per_sec = 0;
  double max_util = ReferenceMeasureUtilization(stack, probe, profile_window);
  if (target_util >= max_util - 0.01) {
    out.unthrottled = true;
    out.achieved_util = max_util;
    return out;
  }
  double lo = 0.1;
  double hi = 4000.0;
  double best_rate = hi;
  double best_err = 1.0;
  for (int iter = 0; iter < 11; ++iter) {
    double mid = (lo + hi) / 2;
    probe.ops_per_sec = mid;
    double util = ReferenceMeasureUtilization(stack, probe, profile_window);
    double err = util - target_util;
    if (std::abs(err) < std::abs(best_err)) {
      best_err = err;
      best_rate = mid;
    }
    if (std::abs(err) < 0.015) {
      break;
    }
    if (err < 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.ops_per_sec = best_rate;
  out.achieved_util = target_util + best_err;
  return out;
}

void ExpectBitIdentical(const CalibratedRate& got, const CalibratedRate& want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.ops_per_sec), std::bit_cast<uint64_t>(want.ops_per_sec))
      << got.ops_per_sec << " vs " << want.ops_per_sec;
  EXPECT_EQ(got.unthrottled, want.unthrottled);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.achieved_util),
            std::bit_cast<uint64_t>(want.achieved_util))
      << got.achieved_util << " vs " << want.achieved_util;
}

constexpr SimDuration kGridWindow = Seconds(3);

TEST(CalibrateTest, SlicedProbeMatchesOneRunUntil) {
  StackConfig stack = TinyStack();
  for (Personality personality :
       {Personality::kFileserver, Personality::kWebproxy, Personality::kWebserver}) {
    for (double rate : {0.0, 60.0}) {
      WorkloadConfig config = MakeWorkloadConfig(stack, personality, 1.0, false, rate, 1);
      EXPECT_EQ(std::bit_cast<uint64_t>(MeasureUtilization(stack, config, kGridWindow)),
                std::bit_cast<uint64_t>(
                    ReferenceMeasureUtilization(stack, config, kGridWindow)));
    }
  }
}

class CalibrateDifferentialTest
    : public ::testing::TestWithParam<std::tuple<Personality, double>> {};

// Targets span low (often unconverged), mid, near the natural maximum (about
// 0.97-0.99 on this stack) and above it. The reference runs every step's
// probe; CalibrateRate reuses a probe for the steps it proved identical.
TEST_P(CalibrateDifferentialTest, MatchesFullWindowBisection) {
  StackConfig stack = TinyStack();
  auto [personality, fragmented] = GetParam();
  int reused = 0;
  for (uint64_t seed : {1, 2}) {
    WorkloadConfig base = MakeWorkloadConfig(stack, personality, 1.0, false, 0, seed);
    base.fragmented_fraction = fragmented;
    for (double target : {0.02, 0.3, 0.6, 0.9, 0.965, 0.98, 0.995}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " target " << target);
      CalibratedRate rate = CalibrateRate(stack, base, target, kGridWindow);
      ExpectBitIdentical(rate, ReferenceCalibrateRate(stack, base, target, kGridWindow));
      reused += rate.reused;
    }
  }
  // Reuse is the optimisation the grid proves exact, so it must happen. The
  // read-mostly personalities' probes at 2000 ops/s hold no op back at
  // 1000; the fileserver's buffered writes and deletes complete at once, so
  // pacing holds its ops back at every rate the bisection probes.
  if (personality != Personality::kFileserver) {
    EXPECT_GT(reused, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CalibrateDifferentialTest,
    ::testing::Combine(::testing::Values(Personality::kFileserver, Personality::kWebproxy,
                                         Personality::kWebserver),
                       ::testing::Values(0.0, 0.1)),
    [](const ::testing::TestParamInfo<CalibrateDifferentialTest::ParamType>& param_info) {
      return std::string(PersonalityName(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) > 0 ? "_fragmented" : "_contiguous");
    });

// A bisection that ends unconverged with a stopped probe that may hold the
// least error: the re-measure path must run and keep the result exact.
TEST(CalibrateTest, UnconvergedBisectionReMeasuresStoppedProbes) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                           false, 0, 1);
  base.fragmented_fraction = 0.1;
  CalibratedRate rate = CalibrateRate(stack, base, 0.3, kGridWindow);
  ASSERT_FALSE(rate.unthrottled);
  // An unconverged bisection takes all 11 steps, each a probe or a reuse,
  // after the unthrottled probe; every probe past those is a re-measure.
  int remeasured = rate.probes - 1 - (11 - rate.reused);
  EXPECT_GT(remeasured, 0) << rate.probes << " probes, " << rate.reused << " reused";
  ExpectBitIdentical(rate, ReferenceCalibrateRate(stack, base, 0.3, kGridWindow));
}

// Configs that differ in one stack or workload field a profile run reads
// must not share a rate. A zero target calibrates without a probe, so each Get is instant.
TEST(RateTableTest, KeyCoversEveryWorkloadFieldTheProbeReads) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 0.5, false, 0, 1);
  RateTable rates;
  const CalibratedRate* interleaved = &rates.Get(stack, base, 0);
  std::vector<WorkloadConfig> variants(15, base);
  variants[0].cluster_covered = true;
  variants[1].file_count += 1;
  variants[2].mean_file_size *= 2;
  variants[3].subdirs = 4;
  variants[4].partial_read_fraction = 0.25;
  variants[5].zipf_s = 0.9;
  variants[6].think_time = Micros(200);
  variants[7].append_size = 8 * 1024;
  variants[8].data_dir = "/other";
  variants[9].log_path = "/otherlog";
  variants[10].personality = Personality::kFileserver;
  variants[11].coverage = 1.0;
  variants[12].skewed = true;
  variants[13].fragmented_fraction = 0.1;
  variants[14].seed = 2;
  std::set<const CalibratedRate*> entries{interleaved};
  for (const WorkloadConfig& variant : variants) {
    entries.insert(&rates.Get(stack, variant, 0));
  }
  // The stack fields a probe reads.
  std::vector<StackConfig> stacks(5, stack);
  stacks[0].device = DeviceKind::kSsd;
  stacks[1].scheduler = SchedulerKind::kDeadline;
  stacks[2].capacity_blocks *= 2;
  stacks[3].cache_pages += 1;
  stacks[4].idle_grace = Millis(4);
  for (const StackConfig& variant : stacks) {
    entries.insert(&rates.Get(variant, base, 0));
  }
  EXPECT_EQ(entries.size(), 1 + variants.size() + stacks.size());
  // The rate itself is not part of the key.
  WorkloadConfig throttled = base;
  throttled.ops_per_sec = 50;
  EXPECT_EQ(&rates.Get(stack, throttled, 0), interleaved);
}

// A rate loaded from the cache file is the double CalibrateRate returned, so a
// warm-cache run simulates exactly what a cold one does.
TEST(RateTableTest, SavedRatesRoundTripBitForBit) {
  StackConfig stack = TinyStack();
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0, false, 0, 1);
  std::string path = testing::TempDir() + "rate_table_round_trip";
  std::remove(path.c_str());
  CalibratedRate fresh;
  {
    RateTable rates(path);
    fresh = rates.Get(stack, base, 0.3);
  }
  ASSERT_GT(fresh.probes, 0);
  ASSERT_FALSE(fresh.unthrottled);
  RateTable reloaded(path);
  const CalibratedRate& cached = reloaded.Get(stack, base, 0.3);
  EXPECT_EQ(cached.probes, 0);  // read from the file, not re-calibrated
  ExpectBitIdentical(cached, fresh);
  std::remove(path.c_str());
}

TEST(RigDeathTest, FailedPopulationAbortsWithStatus) {
  StackConfig stack = TinyStack();
  stack.capacity_blocks = 1024;  // 4 MiB device for 128 MiB of data
  WorkloadConfig workload =
      MakeWorkloadConfig(stack, Personality::kWebserver, 1.0, false, 0, 1);
  EXPECT_DEATH({ CowRig rig(stack, workload); }, "NO_SPACE: cowfs full");
  EXPECT_DEATH({ LogRig rig(stack, workload); }, "cannot populate the webserver file set");
}

TEST(RunnerDeathTest, MissingRateAbortsWithMessage) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.target_util = 0.5;
  config.tasks = {MaintKind::kScrub};
  EXPECT_DEATH(RunMaintenance(config), "no workload rate for target utilization 0.50");
}

TEST(RunnerTest, IdleBaselineScrubCompletes) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.target_util = 0;
  config.tasks = {MaintKind::kScrub};
  config.use_duet = false;
  MaintenanceRunResult result = RunMaintenance(config);
  ASSERT_EQ(result.task_stats.size(), 1u);
  EXPECT_TRUE(result.all_finished);
  EXPECT_EQ(result.IoSavedFraction(), 0);
  EXPECT_DOUBLE_EQ(result.WorkCompletedFraction(), 1.0);
  EXPECT_EQ(result.workload_ops, 0u);
}

TEST(RunnerTest, DuetSavesUnderWorkload) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.target_util = 0.5;
  config.tasks = {MaintKind::kScrub};
  config.seed = 3;

  RateTable rates;
  config.use_duet = false;
  MaintenanceRunResult baseline = RunAtUtil(rates, config);
  config.use_duet = true;
  MaintenanceRunResult with_duet = RunAtUtil(rates, config);

  EXPECT_EQ(baseline.IoSavedFraction(), 0);
  EXPECT_GT(with_duet.IoSavedFraction(), 0.02);
  // Duet performs strictly less maintenance I/O.
  EXPECT_LT(with_duet.TotalTaskIo(), baseline.TotalTaskIo() + 1);
}

TEST(RunnerTest, ConcurrentTasksCollaborateWhenIdle) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.target_util = 0;  // no foreground workload at all
  config.tasks = {MaintKind::kScrub, MaintKind::kBackup};
  config.use_duet = true;
  MaintenanceRunResult result = RunMaintenance(config);
  // One pass over the shared data serves both tasks (paper Fig. 5).
  EXPECT_GT(result.IoSavedFraction(), 0.35);
  EXPECT_TRUE(result.all_finished);
}

// Scrub and backup on a fragmented fileserver, as in Figs. 7/8: backup's
// state session marks blocks done while their pages are cached, yet the
// descriptor store stays within the paper's 2 x cached-pages bound (§4.2).
TEST(RunnerTest, ScrubAndBackupKeepDescriptorsWithinTwiceTheCache) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.personality = Personality::kFileserver;
  config.fragmented_fraction = 0.1;
  config.target_util = 0.5;
  config.ops_per_sec = 40;  // fixed rate: skip calibration
  config.tasks = {MaintKind::kScrub, MaintKind::kBackup};
  config.use_duet = true;
  MaintenanceRunResult result = RunMaintenance(config);
  int64_t peak = result.metrics.GaugeValue("duet.desc.peak");
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, static_cast<int64_t>(2 * config.stack.cache_pages));
  EXPECT_EQ(result.metrics.GaugeValue("duet.desc.live"), 0);
}

TEST(RunnerTest, DeterministicAcrossRuns) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.target_util = 0.3;
  config.ops_per_sec = 40;  // fixed rate: skip calibration
  config.tasks = {MaintKind::kScrub};
  config.use_duet = true;
  MaintenanceRunResult a = RunMaintenance(config);
  MaintenanceRunResult b = RunMaintenance(config);
  EXPECT_EQ(a.TotalTaskIo(), b.TotalTaskIo());
  EXPECT_EQ(a.workload_ops, b.workload_ops);
  EXPECT_EQ(a.task_stats[0].saved_read_pages, b.task_stats[0].saved_read_pages);
}

TEST(RunnerTest, RsyncDuetNoSlowerThanBaseline) {
  StackConfig stack = TinyStack();
  RsyncRunResult baseline =
      RunRsync(stack, Personality::kWebserver, 1.0, false, false, 5);
  RsyncRunResult with_duet =
      RunRsync(stack, Personality::kWebserver, 1.0, false, true, 5);
  ASSERT_TRUE(baseline.finished);
  ASSERT_TRUE(with_duet.finished);
  EXPECT_LE(with_duet.runtime, baseline.runtime);
  EXPECT_GT(with_duet.stats.saved_read_pages, 0u);
}

TEST(RunnerTest, GcRunProducesCleanings) {
  StackConfig stack = TinyStack();
  GcRunResult result = RunGc(stack, /*use_duet=*/true, 9, /*ops_per_sec=*/60);
  EXPECT_GT(result.segments_cleaned, 0u);
  EXPECT_GT(result.cleaning_time_ms.count(), 0u);
}

TEST(RunnerTest, FindMaxUtilizationMonotoneResult) {
  MaintenanceRunConfig config;
  config.stack = TinyStack();
  config.tasks = {MaintKind::kScrub};
  config.use_duet = false;
  RateTable rates;
  double base_max = FindMaxUtilization(rates, config, /*step_pct=*/25);
  EXPECT_GE(base_max, 0.0);
  EXPECT_LE(base_max, 1.0);
}

}  // namespace
}  // namespace duet
