#include "src/tasks/scrubber.h"

#include <gtest/gtest.h>

#include "src/duet/duet_core.h"
#include "src/obs/trace.h"
#include "src/util/bitmap.h"
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

  // A Duet scrubber holds the fixture's only session, the table's first.
  static constexpr SessionId kScrubSid = 0;

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

TEST_F(ScrubberTest, SnapshotBlockReadDoesNotCacheOldContentAsLivePage) {
  Populate(1, 2 * Scrubber::kChunkBlocks);
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  const BlockNo old_block = *fs_.Bmap(f0, 0);
  const uint64_t old_token = fs_.DiskToken(old_block);
  ASSERT_TRUE(fs_.CreateSnapshot().ok());
  // Overwrite page 0: its COW copy moves to a new block, and the snapshot
  // keeps the old one, whose reverse-map entry still names the page.
  fs_.Write(f0, 0, kPageSize, IoClass::kBestEffort, nullptr);
  fs_.writeback().Sync(nullptr);
  rig_.loop.Run();
  const BlockNo live_block = *fs_.Bmap(f0, 0);
  ASSERT_GE(live_block, old_block + 2 * Scrubber::kChunkBlocks);
  ASSERT_TRUE(fs_.cache().Remove(f0, 0));

  ScrubberConfig config;
  config.use_duet = true;
  Scrubber scrub(&fs_, &duet_, config);
  bool finished = false;
  scrub.Start([&] { finished = true; });
  // Run until the scan has read the file's old blocks (the first two
  // chunks) but not yet the page's live block, which lies past them.
  while (scrub.stats().io_read_pages < 2 * Scrubber::kChunkBlocks && rig_.loop.RunOne()) {
  }
  ASSERT_GE(scrub.stats().io_read_pages, 2 * Scrubber::kChunkBlocks);
  const CachedPage* page = fs_.cache().Peek(f0, 0);
  EXPECT_TRUE(page == nullptr || page->data != old_token);
  EXPECT_FALSE(finished);
  EXPECT_TRUE(duet_.CheckDone(kScrubSid, old_block));
  EXPECT_FALSE(duet_.CheckDone(kScrubSid, live_block));
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  // Nothing but the scan verified a block, so it read the live block too.
  EXPECT_EQ(scrub.stats().io_read_pages, scrub.stats().work_total);
  EXPECT_EQ(scrub.stats().saved_read_pages, 0u);
}

// The scan marks each run of blocks its read verified done before the run's
// pages enter the cache, so its own reads report nothing to its session, and
// before the chunk that holds the run finishes. Deleting /f1 leaves a hole,
// so the first chunk is read as two runs.
TEST_F(ScrubberTest, DuetMarksEachVerifiedRunBeforeItsChunkFinishes) {
  Populate(4, 100);
  ASSERT_TRUE(fs_.DeleteFile(*fs_.ns().Resolve("/f1")).ok());
  obs::TraceRing ring(1 << 16);
  rig_.obs.trace.AddSink(&ring);
  ScrubberConfig config;
  config.use_duet = true;
  Scrubber scrub(&fs_, &duet_, config);
  bool finished = false;
  scrub.Start([&] { finished = true; });
  rig_.loop.Run();
  rig_.obs.trace.RemoveSink(&ring);
  ASSERT_TRUE(finished);
  ASSERT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(scrub.stats().io_read_pages, 300u);
  EXPECT_EQ(fs_.cache().PageCount(), 300u);  // every page the scan read
  EXPECT_EQ(rig_.obs.metrics.CounterValue("duet.events.delivered"), 0u);
  EXPECT_EQ(rig_.obs.metrics.CounterValue("duet.items.fetched"), 0u);
  EXPECT_EQ(rig_.obs.metrics.CounterValue("duet.done.set"), 300u);

  Bitmap done(fs_.capacity_blocks());
  uint64_t done_calls = 0;
  uint64_t chunks = 0;
  ring.ForEach([&](const obs::TraceEvent& e) {
    if (e.kind == obs::TraceKind::kDoneSet && e.a == kScrubSid) {
      ++done_calls;
      for (BlockNo b = e.b; b < e.b + e.c; ++b) {
        done.Set(b);
      }
    } else if (e.kind == obs::TraceKind::kChunkFinished &&
               e.a == static_cast<uint64_t>(TaskTag::kScrub)) {
      ++chunks;
      for (BlockNo b = e.b; b < e.b + e.c; ++b) {
        EXPECT_EQ(done.Test(b), fs_.BlockInUse(b)) << "block " << b;
      }
    }
  });
  EXPECT_EQ(chunks, 2u);
  EXPECT_EQ(done_calls, 3u);  // one per run: two in the first chunk, one in the second
}

// A block allocated while a chunk's read is in flight was not read, so the
// chunk does not mark it done. Population allocates without touching the
// cache, so no Dirtied report re-opens the blocks for the scan either.
TEST_F(ScrubberTest, DuetDoesNotMarkBlocksAllocatedDuringTheRead) {
  Populate(1, 100);
  ScrubberConfig config;
  config.use_duet = true;
  Scrubber scrub(&fs_, &duet_, config);
  bool finished = false;
  scrub.Start([&] { finished = true; });
  // The first chunk spans the blocks past /f0; its read is in flight.
  InodeNo late = *fs_.PopulateFile("/late", 50 * kPageSize);
  ASSERT_LT(*fs_.Bmap(late, 49), Scrubber::kChunkBlocks);
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  // The scan read /f0 and nobody else verified anything: done holds only
  // what the scan read, and nothing counts as saved.
  EXPECT_EQ(scrub.stats().io_read_pages, 100u);
  EXPECT_EQ(scrub.stats().saved_read_pages, 0u);
  EXPECT_EQ(rig_.obs.metrics.CounterValue("duet.done.set"), 100u);
}

// A run is counted as read when it is marked done, so a scan stopped between
// two runs of one chunk counts none of the blocks it read as saved.
TEST_F(ScrubberTest, DuetStopBetweenRunsCountsNoReadBlockAsSaved) {
  Populate(3, 100);
  ASSERT_TRUE(fs_.DeleteFile(*fs_.ns().Resolve("/f1")).ok());
  ScrubberConfig config;
  config.use_duet = true;
  Scrubber scrub(&fs_, &duet_, config);
  scrub.Start();
  // The first chunk is read as two runs; stop once the first has verified.
  while (scrub.stats().io_read_pages == 0 && rig_.loop.RunOne()) {
  }
  ASSERT_EQ(scrub.stats().io_read_pages, 100u);
  ASSERT_EQ(duet_.DoneCount(kScrubSid), 100u);
  scrub.Stop();
  EXPECT_EQ(scrub.stats().saved_read_pages, 0u);
  EXPECT_EQ(scrub.stats().work_done, 100u);
}

// A bad block is not verified by the read, so the scan marks it done once
// RepairBlocks has rewritten it.
TEST_F(ScrubberTest, DuetMarksRepairedBlockDone) {
  Populate(1, 2 * Scrubber::kChunkBlocks);
  InodeNo f0 = *fs_.ns().Resolve("/f0");
  const BlockNo bad = *fs_.Bmap(f0, 5);
  fs_.CorruptBlock(bad);
  ScrubberConfig config;
  config.use_duet = true;
  Scrubber scrub(&fs_, &duet_, config);
  bool finished = false;
  scrub.Start([&] { finished = true; });
  // The repair's callback marks the block, then starts the second chunk.
  while (scrub.blocks_repaired() == 0 && rig_.loop.RunOne()) {
  }
  ASSERT_EQ(scrub.blocks_repaired(), 1u);
  ASSERT_FALSE(finished);
  EXPECT_TRUE(duet_.CheckDone(kScrubSid, bad));
  EXPECT_EQ(duet_.DoneCount(kScrubSid), Scrubber::kChunkBlocks);
  rig_.loop.Run();
  EXPECT_TRUE(finished);
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
