#include "src/tasks/backup.h"

#include <gtest/gtest.h>

#include "src/duet/duet_core.h"
#include "src/obs/obs.h"
#include "src/util/format.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class BackupTest : public ::testing::Test {
 protected:
  BackupTest()
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

TEST_F(BackupTest, BaselineSendsEveryPageOnce) {
  Populate(8, 32);
  Backup backup(&fs_, nullptr, BackupConfig{});
  bool finished = false;
  backup.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_TRUE(backup.AllPagesSentOnce());
  EXPECT_EQ(backup.bytes_sent(), 8 * 32 * kPageSize);
  EXPECT_EQ(backup.stats().work_done, backup.stats().work_total);
}

TEST_F(BackupTest, SnapshotVersionIsBackedUpDespiteOverwrites) {
  Populate(2, 64);
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  BackupConfig config;
  Backup backup(&fs_, nullptr, config);
  bool finished = false;
  backup.Start([&] { finished = true; });
  // Overwrite f0 heavily while the backup streams.
  int writes_during_stream = 0;
  for (int i = 1; i <= 10; ++i) {
    rig_.loop.ScheduleAt(Micros(static_cast<uint64_t>(200 * i)), [&, f0] {
      writes_during_stream += finished ? 0 : 1;
      fs_.Write(f0, 0, 32 * kPageSize, IoClass::kBestEffort, nullptr);
    });
  }
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(writes_during_stream, 10);
  EXPECT_TRUE(backup.AllPagesSentOnce());
}

TEST_F(BackupTest, DuetOpportunisticallyCopiesCachedPages) {
  Populate(8, 32);
  BackupConfig config;
  config.use_duet = true;
  Backup backup(&fs_, &duet_, config);
  bool finished = false;
  backup.Start([&] { finished = true; });
  // Foreground reads bring shared pages into the cache during the backup.
  int reads_during_stream = 0;
  for (int i = 4; i < 8; ++i) {
    InodeNo ino = *fs_.ns().Resolve(StrFormat("/f%d", i));
    rig_.loop.ScheduleAt(Micros(static_cast<uint64_t>(200 * i)), [&, ino] {
      fs_.Read(ino, 0, 32 * kPageSize, IoClass::kBestEffort,
               [&](const FsIoResult&) { reads_during_stream += finished ? 0 : 1; });
    });
  }
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  // The reads overlap the stream: each completed before the backup finished.
  EXPECT_EQ(reads_during_stream, 4);
  EXPECT_TRUE(backup.AllPagesSentOnce());
  EXPECT_GT(backup.stats().opportunistic_units, 0u);
  EXPECT_GT(backup.stats().saved_read_pages, 0u);
  EXPECT_LT(backup.stats().io_read_pages, backup.stats().work_total);
  EXPECT_EQ(backup.stats().work_done, backup.stats().work_total);
}

TEST_F(BackupTest, DuetDoesNotCopyPagesModifiedSinceSnapshot) {
  Populate(2, 32);
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  BackupConfig config;
  config.use_duet = true;
  Backup backup(&fs_, &duet_, config);
  bool finished = false;
  backup.Start([&] { finished = true; });
  // Immediately dirty f0 (after the snapshot is cut at t≈0), before the
  // stream sends any of it: the cached pages no longer share blocks with the
  // snapshot, so the opportunistic path must not send them.
  rig_.loop.RunUntil(Micros(1));
  ASSERT_FALSE(finished);
  ASSERT_EQ(backup.bytes_sent(), 0u);
  fs_.Write(f0, 0, 32 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  // Still complete and consistent: the preserved blocks were read instead.
  EXPECT_TRUE(backup.AllPagesSentOnce());
}

TEST_F(BackupTest, StopReleasesSnapshot) {
  Populate(4, 64);
  uint64_t blocks_before = fs_.allocated_blocks();
  Backup backup(&fs_, nullptr, BackupConfig{});
  backup.Start();
  rig_.loop.RunUntil(Millis(2));
  backup.Stop();
  rig_.loop.Run();
  EXPECT_EQ(fs_.allocated_blocks(), blocks_before);  // snapshot refs dropped
}

TEST_F(BackupTest, BackupReadsPopulateCacheForOtherTasks) {
  Populate(4, 32);
  Backup backup(&fs_, nullptr, BackupConfig{});
  bool finished = false;
  backup.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  // Shared (unmodified) pages were read through the page cache.
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  EXPECT_GT(fs_.cache().CachedPagesOfInode(f0), 0u);
}

// A page whose read did not verify was not backed up. Read reports no
// per-page failures, so the whole chunk holding the corrupt page stays
// unsent.
TEST_F(BackupTest, CorruptPageReadThroughFileIsNotCountedSent) {
  Populate(2, 16);
  fs_.CorruptBlock(*fs_.Bmap(*fs_.ns().Resolve("/f0"), 3));
  Backup backup(&fs_, nullptr, BackupConfig{});
  bool finished = false;
  backup.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(fs_.checksum_errors_detected(), 1u);
  EXPECT_EQ(backup.stats().work_total, 32u);
  EXPECT_EQ(backup.stats().work_done, 16u);
  EXPECT_EQ(backup.bytes_sent(), 16 * kPageSize);
  EXPECT_FALSE(backup.AllPagesSentOnce());
}

// Pages modified since the snapshot are streamed from their preserved
// blocks, which ReadBlocks verifies one by one: only the corrupt one stays
// unsent.
TEST_F(BackupTest, CorruptSnapshotBlockIsNotCountedSent) {
  Populate(2, 16);
  InodeNo f1 = *fs_.ns().Resolve("/f1");
  BlockNo preserved = *fs_.Bmap(f1, 5);
  Backup backup(&fs_, nullptr, BackupConfig{});
  bool finished = false;
  backup.Start([&] { finished = true; });
  // Once the snapshot is cut (t≈0), overwrite f1 so its pages stream from
  // the preserved blocks, and rot one of them.
  rig_.loop.RunUntil(Micros(1));
  fs_.Write(f1, 0, 16 * kPageSize, IoClass::kBestEffort, nullptr);
  ASSERT_NE(*fs_.Bmap(f1, 5), preserved);
  ASSERT_TRUE(fs_.BlockInUse(preserved));  // kept alive by the snapshot
  fs_.CorruptBlock(preserved);
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(fs_.checksum_errors_detected(), 1u);
  EXPECT_EQ(backup.stats().work_done, 31u);
  EXPECT_FALSE(backup.AllPagesSentOnce());
}

// Sparse files: a page never written is a hole in the snapshot, with no
// block and nothing to send. The stream skips it; every mapped page is sent
// once, with or without Duet.
class BackupHoleTest : public BackupTest, public ::testing::WithParamInterface<bool> {};

TEST_P(BackupHoleTest, HoledFileSendsEveryMappedPageOnce) {
  Populate(2, 16);
  // /sparse maps pages 4-7 and 12 only: its first page and the runs between
  // are holes.
  InodeNo sparse = *fs_.CreateFile("/sparse");
  fs_.Write(sparse, 4 * kPageSize, 4 * kPageSize, IoClass::kBestEffort, nullptr);
  fs_.Write(sparse, 12 * kPageSize, kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  ASSERT_EQ(fs_.BlockOf(sparse, 0), kInvalidBlock);
  ASSERT_EQ(fs_.BlockOf(sparse, 8), kInvalidBlock);
  ASSERT_NE(fs_.BlockOf(sparse, 12), kInvalidBlock);

  BackupConfig config;
  config.use_duet = GetParam();
  Backup backup(&fs_, &duet_, config);
  bool finished = false;
  backup.Start([&] { finished = true; });
  // Reads of the sparse file's mapped pages give Duet something to report.
  bool read_during_stream = false;
  rig_.loop.ScheduleAt(Micros(300), [&, sparse] {
    fs_.Read(sparse, 4 * kPageSize, 4 * kPageSize, IoClass::kBestEffort,
             [&](const FsIoResult&) { read_during_stream = !finished; });
  });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_TRUE(read_during_stream);
  EXPECT_TRUE(backup.AllPagesSentOnce());
  EXPECT_EQ(backup.stats().work_total, 2 * 16 + 5u);
  EXPECT_EQ(backup.stats().work_done, backup.stats().work_total);
  EXPECT_EQ(backup.bytes_sent(), (2 * 16 + 5) * kPageSize);
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutDuet, BackupHoleTest, ::testing::Bool());

// Backup marks done in Duet every block it will never send: each snapshot
// block once sent (in order here, since nothing else reads the files), and
// a block outside the snapshot when a drain first sees it. Pages written
// after the snapshot sit in new blocks; their Exists reports are the only
// items the session fetches, and each is marked done once.
TEST_F(BackupTest, DuetMarksBlocksItWillNeverSendDone) {
  Populate(4, 32);
  InodeNo f3 = *fs_.ns().Resolve("/f3");
  BackupConfig config;
  config.use_duet = true;
  Backup backup(&fs_, &duet_, config);
  bool finished = false;
  backup.Start([&] { finished = true; });
  rig_.loop.RunUntil(Micros(1));  // the snapshot is cut
  ASSERT_FALSE(finished);         // and f3 is not streamed yet
  fs_.Write(f3, 0, 8 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_TRUE(backup.AllPagesSentOnce());
  EXPECT_EQ(backup.stats().work_done, 4 * 32u);
  EXPECT_EQ(backup.stats().opportunistic_units, 0u);
  EXPECT_EQ(rig_.obs.metrics.CounterValue("duet.items.fetched"), 8u);
  EXPECT_EQ(rig_.obs.metrics.CounterValue("duet.done.set"), 4 * 32 + 8u);
}

}  // namespace
}  // namespace duet
