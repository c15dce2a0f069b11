#include <algorithm>

#include <gtest/gtest.h>

#include "src/duet/duet_core.h"
#include "src/tasks/defrag_task.h"
#include "src/tasks/gc_task.h"
#include "src/tasks/rsync_task.h"
#include "src/util/format.h"
#include "src/workload/filebench.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

// ---- Defragmentation ----

class DefragTaskTest : public ::testing::Test {
 protected:
  DefragTaskTest()
      : rig_(1'000'000, Micros(100)),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/512),
        duet_(&fs_),
        rng_(3) {}

  void PopulateFragmented(int files, uint64_t pages_each, double break_prob) {
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(
          fs_.PopulateFileAged(StrFormat("/f%d", i), pages_each * kPageSize, break_prob, rng_)
              .ok());
    }
  }

  SimRig rig_;
  CowFs fs_;
  DuetCore duet_;
  Rng rng_;
};

// A root that does not resolve aborts with a message in every build type,
// rather than walking an error Result once NDEBUG drops an assert.
using DefragTaskDeathTest = DefragTaskTest;
TEST_F(DefragTaskDeathTest, MissingRootAbortsWithMessage) {
  PopulateFragmented(2, 8, 0.5);
  DefragConfig config;
  config.root = "/missing";
  DefragTask task(&fs_, nullptr, config);
  EXPECT_DEATH(task.Start(), "task defrag: root /missing: NOT_FOUND");
}

TEST_F(DefragTaskTest, BaselineDefragmentsAllFragmentedFiles) {
  PopulateFragmented(6, 32, 0.5);
  DefragTask task(&fs_, nullptr, DefragConfig{});
  bool finished = false;
  task.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(task.files_defragmented(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_LE(fs_.ExtentCount(*fs_.ns().Resolve(StrFormat("/f%d", i))), 2u);
  }
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
}

// DefragFile takes a file's whole destination before it frees the old
// blocks, so on a nearly full device a large file's defrag fails with
// NO_SPACE. The task counts each failure in tasks.defrag.failed, moves on,
// and still finishes, with the failed files' work not done.
TEST(DefragTaskFullDeviceTest, CountsDefragsThatFail) {
  SimRig rig(256, Micros(100));
  CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/64);
  Rng rng(3);
  for (auto [name, pages] : {std::pair{"/big0", 100}, {"/big1", 100}, {"/small", 20}}) {
    ASSERT_TRUE(fs.PopulateFileAged(name, pages * kPageSize, 0.5, rng).ok());
    ASSERT_GT(fs.ExtentCount(*fs.ns().Resolve(name)), 3u) << name;
  }
  ASSERT_EQ(fs.capacity_blocks() - fs.allocated_blocks(), 36u);
  DefragTask task(&fs, nullptr, DefragConfig{});
  bool finished = false;
  task.Start([&] { finished = true; });
  rig.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(rig.obs.metrics.CounterValue("tasks.defrag.failed"), 2u);
  EXPECT_EQ(task.files_defragmented(), 1u);
  EXPECT_LE(fs.ExtentCount(*fs.ns().Resolve("/small")), 2u);
  EXPECT_EQ(task.stats().work_done, 2u * 20);
  EXPECT_EQ(task.stats().work_total, 2u * 220);
  EXPECT_TRUE(fs.CheckConsistency().clean());
}

TEST_F(DefragTaskTest, SkipsAlreadyContiguousFiles) {
  ASSERT_TRUE(fs_.PopulateFile("/contig", 64 * kPageSize).ok());
  PopulateFragmented(2, 16, 0.5);
  DefragTask task(&fs_, nullptr, DefragConfig{});
  task.Start();
  rig_.loop.Run();
  EXPECT_EQ(task.files_defragmented(), 2u);
}

TEST_F(DefragTaskTest, DuetPrioritizesCachedFilesAndSavesReads) {
  PopulateFragmented(6, 32, 0.5);
  // Warm file 5 fully into the cache.
  InodeNo hot = *fs_.ns().Resolve("/f5");
  fs_.Read(hot, 0, 32 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(500));

  DefragConfig config;
  config.use_duet = true;
  DefragTask task(&fs_, &duet_, config);
  bool finished = false;
  task.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(task.files_defragmented(), 6u);
  EXPECT_GT(task.stats().opportunistic_units, 0u);
  EXPECT_GE(task.stats().saved_read_pages, 32u);  // the hot file's reads
}

TEST_F(DefragTaskTest, DuetCountsDirtyPagesAsSavedWrites) {
  PopulateFragmented(2, 32, 0.5);
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  fs_.Write(f0, 0, 8 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(500));
  DefragConfig config;
  config.use_duet = true;
  DefragTask task(&fs_, &duet_, config);
  task.Start();
  rig_.loop.Run();
  EXPECT_GE(task.stats().saved_write_pages, 8u);
}

// ---- Garbage collection ----

class GcTaskTest : public ::testing::Test {
 protected:
  GcTaskTest()
      : rig_(16'384, Micros(100)),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/256, /*segment_blocks=*/64),
        duet_(&fs_) {}

  // Issues a one-block best-effort read every half idle threshold until
  // `until`, so the device never idles long enough for the GC to clean.
  void KeepDeviceBusy(SimTime until) {
    for (SimTime at = rig_.loop.now(); at < until; at += GcTask::kIdleThreshold / 2) {
      rig_.loop.ScheduleAt(at, [this] {
        IoRequest read;
        read.block = 16'000;
        rig_.device.Submit(std::move(read));
      });
    }
  }

  SimRig rig_;
  LogFs fs_;
  DuetCore duet_;
};

TEST_F(GcTaskTest, CleansInvalidatedSegmentsWhenIdle) {
  // Two files fill segments; overwriting one leaves mostly-invalid segments.
  InodeNo a = *fs_.PopulateFile("/a", 128 * kPageSize);
  ASSERT_TRUE(fs_.PopulateFile("/b", 128 * kPageSize).ok());
  fs_.Write(a, 0, 120 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(500));
  bool mostly_invalid = false;
  for (SegmentNo seg = 0; seg < fs_.segment_count(); ++seg) {
    const SegmentInfo& info = fs_.segment(seg);
    mostly_invalid |= info.written == fs_.segment_blocks() && info.valid > 0 &&
                      info.valid < fs_.segment_blocks() / 2;
  }
  ASSERT_TRUE(mostly_invalid);

  GcTask gc(&fs_, nullptr, GcConfig{});
  gc.Start();
  rig_.loop.RunUntil(Seconds(30));
  gc.Stop();
  rig_.loop.Run();
  EXPECT_GT(gc.segments_cleaned(), 0u);
  EXPECT_GT(gc.cleaning_time_ms().count(), 0u);
}

TEST_F(GcTaskTest, DoesNotRunWhileDeviceBusy) {
  InodeNo a = *fs_.PopulateFile("/a", 128 * kPageSize);
  fs_.Write(a, 0, 120 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(500));
  GcTask gc(&fs_, nullptr, GcConfig{});
  gc.Start();
  // Steady foreground reads keep last-activity fresh: sampled every
  // millisecond, the device never idles for the GC's threshold.
  KeepDeviceBusy(Seconds(6));
  SimDuration longest_idle = 0;
  for (SimTime at = Millis(501); at < Seconds(6); at += Millis(1)) {
    rig_.loop.ScheduleAt(at, [this, &longest_idle] {
      longest_idle = std::max(longest_idle,
                              rig_.loop.now() - rig_.device.last_best_effort_activity());
    });
  }
  rig_.loop.RunUntil(Seconds(6));
  gc.Stop();
  EXPECT_LT(longest_idle, GcTask::kIdleThreshold);
  EXPECT_EQ(gc.segments_cleaned(), 0u);
}

TEST_F(GcTaskTest, DuetCountersTrackCachedBlocks) {
  InodeNo a = *fs_.PopulateFile("/a", 64 * kPageSize);  // exactly segment 0
  GcConfig config;
  config.use_duet = true;
  GcTask gc(&fs_, &duet_, config);
  gc.Start();
  fs_.Read(a, 0, 32 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Seconds(1));
  gc.Stop();
  // Segment 0 has no invalid block, so no cleaning reset its counter.
  ASSERT_EQ(gc.segments_cleaned(), 0u);
  // 32 pages of segment 0 were cached; the counter should be close.
  EXPECT_GE(gc.CachedCounter(0), 24);
  EXPECT_LE(gc.CachedCounter(0), 32);
}

// A page added, flushed and evicted between two drains is fetched with
// only its Flushed event (its existence was never reported, so no state
// change is): the page is not cached and must not be counted as cached.
TEST_F(GcTaskTest, DuetDoesNotCountFlushedPagesThatLeftTheCache) {
  InodeNo a = *fs_.PopulateFile("/a", 64 * kPageSize);
  GcConfig config;
  config.use_duet = true;
  GcTask gc(&fs_, &duet_, config);
  gc.Start();
  KeepDeviceBusy(Seconds(1));  // never cleans: counters stay put
  fs_.Write(a, 0, 8 * kPageSize, IoClass::kBestEffort, nullptr);
  bool synced = false;
  fs_.Sync([&synced] { synced = true; });
  rig_.loop.RunUntil(Millis(50));  // before the first drain
  ASSERT_TRUE(synced);
  const SegmentNo seg = fs_.SegmentOf(*fs_.Bmap(a, 0));
  for (PageIdx p = 0; p < 8; ++p) {
    ASSERT_TRUE(fs_.cache().Remove(a, p));
  }
  // Two pages come back into the cache, so they are counted.
  fs_.Read(a, 0, 2 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Seconds(1));
  gc.Stop();
  ASSERT_EQ(gc.segments_cleaned(), 0u);
  EXPECT_EQ(gc.CachedCounter(seg), 2);
}

TEST_F(GcTaskTest, DuetPrefersCachedVictims) {
  // Segments 0 and 1: same validity and age; warm segment 1's blocks.
  InodeNo a = *fs_.PopulateFile("/a", 64 * kPageSize);  // segment 0
  InodeNo b = *fs_.PopulateFile("/b", 64 * kPageSize);  // segment 1
  // Invalidate half of each so both are GC candidates.
  fs_.Write(a, 0, 32 * kPageSize, IoClass::kBestEffort, nullptr);
  fs_.Write(b, 0, 32 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(500));

  GcConfig config;
  config.use_duet = true;
  GcTask gc(&fs_, &duet_, config);
  gc.Start();
  // Warm the remaining valid pages of b (pages 32..63, still in segment 1),
  // before the GC first wakes.
  SimTime warmed_at = 0;
  fs_.Read(b, 32 * kPageSize, 32 * kPageSize, IoClass::kBestEffort,
           [&](const FsIoResult&) { warmed_at = rig_.loop.now(); });
  rig_.loop.RunUntil(Seconds(2));
  gc.Stop();
  ASSERT_GT(warmed_at, 0u);
  ASSERT_LT(warmed_at, Millis(500) + GcTask::kWakeInterval);
  ASSERT_GT(gc.segments_cleaned(), 0u);
  // The first cleaned segment should have used cached blocks.
  EXPECT_GT(gc.stats().saved_read_pages, 0u);
}

// ---- Rsync ----

class RsyncTest : public ::testing::Test {
 protected:
  RsyncTest()
      : src_rig_(1'000'000, Micros(100)),
        src_fs_(&src_rig_.loop, &src_rig_.device, 512),
        dst_device_(&src_rig_.loop, std::make_unique<FixedLatencyModel>(Micros(100), 1'000'000),
                    std::make_unique<CfqScheduler>()),
        dst_fs_(&src_rig_.loop, &dst_device_, 512),
        duet_(&src_fs_) {}

  void Populate(int files) {
    ASSERT_TRUE(src_fs_.Mkdir("/src").ok());
    ASSERT_TRUE(src_fs_.Mkdir("/src/sub").ok());
    for (int i = 0; i < files; ++i) {
      const char* dir = (i % 3 == 0) ? "/src/sub" : "/src";
      ASSERT_TRUE(
          src_fs_.PopulateFile(StrFormat("%s/f%d", dir, i), (8 + i % 5) * kPageSize)
              .ok());
    }
  }

  RsyncConfig Config(bool use_duet) {
    RsyncConfig config;
    config.hints = use_duet ? RsyncHints::kDuet : RsyncHints::kNone;
    config.source_dir = "/src";
    config.dest_dir = "/dst";
    return config;
  }

  SimRig src_rig_;
  CowFs src_fs_;
  BlockDevice dst_device_;
  CowFs dst_fs_;
  DuetCore duet_;
};

using RsyncDeathTest = RsyncTest;
TEST_F(RsyncDeathTest, MissingRootAbortsWithMessage) {
  Populate(3);
  RsyncConfig config = Config(false);
  config.source_dir = "/src/missing";
  RsyncTask task(&src_fs_, &dst_fs_, nullptr, config);
  EXPECT_DEATH(task.Start(), "task rsync: root /src/missing: NOT_FOUND");
}

TEST_F(RsyncTest, BaselineCopiesEverythingCorrectly) {
  Populate(12);
  RsyncTask task(&src_fs_, &dst_fs_, nullptr, Config(false));
  bool finished = false;
  task.Start([&] { finished = true; });
  src_rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(task.files_synced(), 12u);
  EXPECT_TRUE(task.DestinationMatchesSource());
  EXPECT_EQ(task.stats().work_done, task.stats().work_total);
}

TEST_F(RsyncTest, DuetCopiesEverythingAndSavesCachedReads) {
  Populate(12);
  // Warm a few files.
  for (int i = 0; i < 4; ++i) {
    const char* dir = (i % 3 == 0) ? "/src/sub" : "/src";
    InodeNo ino = *src_fs_.ns().Resolve(StrFormat("%s/f%d", dir, i));
    src_fs_.Read(ino, 0, 64 * kPageSize, IoClass::kBestEffort, nullptr);
  }
  src_rig_.loop.RunUntil(Millis(500));
  RsyncTask task(&src_fs_, &dst_fs_, &duet_, Config(true));
  bool finished = false;
  task.Start([&] { finished = true; });
  src_rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(task.files_synced(), 12u);
  EXPECT_TRUE(task.DestinationMatchesSource());
  EXPECT_GT(task.stats().saved_read_pages, 0u);
  EXPECT_GT(task.stats().opportunistic_units, 0u);
}

TEST_F(RsyncTest, MetadataSentExactlyOncePerFile) {
  Populate(9);
  RsyncConfig config = Config(true);
  RsyncTask task(&src_fs_, &dst_fs_, &duet_, config);
  bool finished = false;
  task.Start([&] { finished = true; });
  // Touch files mid-run so they enter the priority queue after the DFS walk
  // may already have queued them.
  for (int i = 0; i < 9; ++i) {
    const char* dir = (i % 3 == 0) ? "/src/sub" : "/src";
    InodeNo ino = *src_fs_.ns().Resolve(StrFormat("%s/f%d", dir, i));
    src_rig_.loop.ScheduleAt(Millis(static_cast<uint64_t>(1 + i)), [this, ino] {
      src_fs_.Read(ino, 0, 4 * kPageSize, IoClass::kBestEffort, nullptr);
    });
  }
  src_rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(task.files_synced(), 9u);  // exactly once each
  EXPECT_TRUE(task.DestinationMatchesSource());
}

TEST_F(RsyncTest, RunsAtNormalPriority) {
  Populate(6);
  RsyncTask task(&src_fs_, &dst_fs_, nullptr, Config(false));
  task.Start();
  src_rig_.loop.Run();
  EXPECT_GT(src_rig_.device.stats().TotalOps(IoClass::kBestEffort), 0u);
  EXPECT_EQ(src_rig_.device.stats().TotalOps(IoClass::kIdle), 0u);
}

}  // namespace
}  // namespace duet
