#include "src/tasks/scrubber.h"

#include <gtest/gtest.h>

#include "src/duet/duet_core.h"
#include "src/util/format.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class ScrubberTest : public ::testing::Test {
 protected:
  ScrubberTest()
      : rig_(1'000'000, Micros(100)),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/512),
        duet_(&fs_) {}

  void Populate(int files, uint64_t pages_each) {
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(fs_.PopulateFile(StrFormat("/f%d", i), pages_each * kPageSize).ok());
    }
  }

  SimRig rig_;
  CowFs fs_;
  DuetCore duet_;
};

TEST_F(ScrubberTest, BaselineScrubsAllAllocatedBlocks) {
  Populate(10, 64);
  Scrubber scrub(&fs_, nullptr, ScrubberConfig{});
  bool finished = false;
  scrub.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(scrub.stats().io_read_pages, 640u);
  EXPECT_EQ(scrub.stats().work_done, 640u);
  EXPECT_EQ(scrub.stats().work_total, 640u);
  EXPECT_EQ(scrub.checksum_errors(), 0u);
  EXPECT_TRUE(scrub.stats().finished);
}

TEST_F(ScrubberTest, DetectsInjectedCorruption) {
  Populate(4, 16);
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  fs_.CorruptBlock(*fs_.Bmap(f0, 3));
  fs_.CorruptBlock(*fs_.Bmap(f0, 9));
  Scrubber scrub(&fs_, nullptr, ScrubberConfig{});
  scrub.Start();
  rig_.loop.Run();
  EXPECT_EQ(scrub.checksum_errors(), 2u);
}

TEST_F(ScrubberTest, ScrubUsesIdlePriority) {
  Populate(4, 32);
  Scrubber scrub(&fs_, nullptr, ScrubberConfig{});
  scrub.Start();
  rig_.loop.Run();
  EXPECT_GT(rig_.device.stats().TotalOps(IoClass::kIdle), 0u);
  EXPECT_EQ(rig_.device.stats().TotalOps(IoClass::kBestEffort), 0u);
}

TEST_F(ScrubberTest, DuetSkipsBlocksVerifiedByReads) {
  Populate(10, 64);
  // Warm 3 files into the cache via the read path (which verifies them).
  for (int i = 0; i < 3; ++i) {
    InodeNo ino = *fs_.ns().Resolve(StrFormat("/f%d", i));
    fs_.Read(ino, 0, 64 * kPageSize, IoClass::kBestEffort, nullptr);
  }
  rig_.loop.RunUntil(Seconds(2));

  ScrubberConfig config;
  config.use_duet = true;
  Scrubber scrub(&fs_, &duet_, config);
  bool finished = false;
  scrub.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  // 3 * 64 = 192 blocks were already verified by the reads.
  EXPECT_EQ(scrub.stats().saved_read_pages, 192u);
  EXPECT_EQ(scrub.stats().io_read_pages, 640u - 192u);
  // Full coverage: every block either read by the scrubber or verified by
  // the file-system read path.
  EXPECT_EQ(scrub.stats().work_done, 640u);
}

TEST_F(ScrubberTest, DuetConcurrentReadsSaveWork) {
  Populate(20, 64);
  ScrubberConfig config;
  config.use_duet = true;
  Scrubber scrub(&fs_, &duet_, config);
  bool finished = false;
  scrub.Start([&] { finished = true; });
  // While scrubbing runs (idle priority), the "workload" reads files at
  // best-effort priority, verifying them ahead of the scrubber's cursor.
  // The scan takes only five chunks, so the reads start early.
  int reads_during_scan = 0;
  for (int i = 10; i < 20; ++i) {
    InodeNo ino = *fs_.ns().Resolve(StrFormat("/f%d", i));
    rig_.loop.ScheduleAt(Micros(static_cast<uint64_t>(10 * i)), [&, ino] {
      fs_.Read(ino, 0, 64 * kPageSize, IoClass::kBestEffort,
               [&](const FsIoResult&) { reads_during_scan += finished ? 0 : 1; });
    });
  }
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  // The reads overlap the scan: each completed before the scan finished.
  EXPECT_EQ(reads_during_scan, 10);
  EXPECT_GT(scrub.stats().saved_read_pages, 0u);
  EXPECT_EQ(scrub.stats().work_done, scrub.stats().work_total);
  EXPECT_LT(scrub.stats().io_read_pages, scrub.stats().work_total);
}

TEST_F(ScrubberTest, DuetRescrubsDirtiedBlocksBeforeCursor) {
  Populate(2, 128);
  InodeNo f1 = *fs_.ns().Resolve("/f1");
  // Read f1 fully: all its blocks become "verified".
  fs_.Read(f1, 0, 128 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Seconds(1));
  // Dirty 16 pages of f1: their new blocks must be re-verified.
  fs_.Write(f1, 0, 16 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Seconds(1) + Millis(500));

  ScrubberConfig config;
  config.use_duet = true;
  Scrubber scrub(&fs_, &duet_, config);
  scrub.Start();
  rig_.loop.Run();
  // 128 - 16 of f1's blocks skipped; f0's 128 and f1's 16 rewritten must be
  // read. (The rewritten blocks were dirtied before registration; the
  // registration scan marks them dirty, clearing their done state.)
  EXPECT_EQ(scrub.stats().saved_read_pages, 112u);
  EXPECT_EQ(scrub.stats().io_read_pages, 128u + 16u);
}

TEST_F(ScrubberTest, StopHaltsScan) {
  Populate(10, 16 * Scrubber::kChunkBlocks);  // 160 chunks
  Scrubber scrub(&fs_, nullptr, ScrubberConfig{});
  scrub.Start();
  rig_.loop.RunUntil(Millis(5));
  // The 5 ms window cuts the scan short: it has read, but not finished.
  ASSERT_GT(scrub.stats().work_done, 0u);
  ASSERT_FALSE(scrub.stats().finished);
  scrub.Stop();
  rig_.loop.Run();
  EXPECT_FALSE(scrub.stats().finished);
  EXPECT_LT(scrub.stats().work_done, scrub.stats().work_total);
}

}  // namespace
}  // namespace duet
