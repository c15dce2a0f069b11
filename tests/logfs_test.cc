#include "src/logfs/logfs.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/util/format.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class LogFsTest : public ::testing::Test {
 protected:
  // 100 segments of 16 blocks each.
  LogFsTest()
      : rig_(1600), fs_(&rig_.loop, &rig_.device, /*cache_pages=*/64,
                        /*segment_blocks=*/16) {}

  InodeNo MakeFile(const char* path, uint64_t pages) {
    Result<InodeNo> ino = fs_.PopulateFile(path, pages * kPageSize);
    EXPECT_TRUE(ino.ok()) << ino.status().ToString();
    return *ino;
  }

  void WriteSync(InodeNo ino, ByteOff off, uint64_t len) {
    fs_.Write(ino, off, len, IoClass::kBestEffort, nullptr);
    rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
  }

  CleanResult CleanSync(SegmentNo seg) {
    CleanResult result;
    bool done = false;
    fs_.CleanSegment(seg, IoClass::kIdle, [&](const CleanResult& r) {
      result = r;
      done = true;
    });
    rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
    EXPECT_TRUE(done);
    return result;
  }

  SimRig rig_;
  LogFs fs_;
};

TEST_F(LogFsTest, GeometryAndInitialState) {
  EXPECT_EQ(fs_.segment_count(), 100u);
  EXPECT_EQ(fs_.segment_blocks(), 16u);
  EXPECT_EQ(fs_.SegmentOf(0), 0u);
  EXPECT_EQ(fs_.SegmentOf(16), 1u);
  EXPECT_GE(fs_.free_segments(), 99u);
}

TEST_F(LogFsTest, AppendsFillSegmentsSequentially) {
  InodeNo ino = MakeFile("/f", 20);  // spans 2 segments
  EXPECT_EQ(*fs_.Bmap(ino, 0), 0u);
  EXPECT_EQ(*fs_.Bmap(ino, 15), 15u);
  EXPECT_EQ(*fs_.Bmap(ino, 16), 16u);
  EXPECT_EQ(fs_.segment(0).valid, 16u);
  EXPECT_EQ(fs_.segment(1).valid, 4u);
}

TEST_F(LogFsTest, OverwriteInvalidatesOldBlock) {
  InodeNo ino = MakeFile("/f", 16);  // fills segment 0 exactly
  BlockNo old_block = *fs_.Bmap(ino, 1);
  WriteSync(ino, kPageSize, kPageSize);
  BlockNo new_block = *fs_.Bmap(ino, 1);
  EXPECT_NE(old_block, new_block);
  EXPECT_NE(fs_.SegmentOf(new_block), fs_.SegmentOf(old_block));
  EXPECT_FALSE(fs_.BlockInUse(old_block));
  EXPECT_TRUE(fs_.BlockInUse(new_block));
  EXPECT_EQ(fs_.segment(fs_.SegmentOf(old_block)).valid, 15u);
}

TEST_F(LogFsTest, DeleteInvalidatesAllBlocks) {
  InodeNo ino = MakeFile("/f", 10);
  SegmentNo seg = fs_.SegmentOf(*fs_.Bmap(ino, 0));
  ASSERT_TRUE(fs_.DeleteFile(ino).ok());
  EXPECT_EQ(fs_.segment(seg).valid, 0u);
  EXPECT_EQ(fs_.allocated_blocks(), 0u);
}

TEST_F(LogFsTest, ValidBlocksOfReportsLiveBlocks) {
  InodeNo ino = MakeFile("/f", 16);
  WriteSync(ino, 0, 4 * kPageSize);  // first 4 pages move to segment 1
  auto valid = fs_.ValidBlocksOf(0);
  EXPECT_EQ(valid.size(), 12u);
  for (BlockNo b : valid) {
    EXPECT_TRUE(fs_.BlockInUse(b));
  }
}

TEST_F(LogFsTest, SelectVictimPrefersMostlyInvalidSegments) {
  // Fill two files; invalidate most of file A's segment.
  InodeNo a = MakeFile("/a", 16);  // segment 0
  MakeFile("/b", 16);              // segment 1
  WriteSync(a, 0, 14 * kPageSize); // invalidates 14 blocks of segment 0
  auto victim = fs_.SelectVictim(0, fs_.segment_count(),
                                 [&](SegmentNo, const SegmentInfo& info) {
                                   return GcCostBaseline(info, fs_.segment_blocks(),
                                                         rig_.loop.now());
                                 });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);
}

TEST_F(LogFsTest, SelectVictimSkipsFullyValidSegments) {
  MakeFile("/a", 16);  // segment 0, fully valid
  auto victim = fs_.SelectVictim(0, fs_.segment_count(),
                                 [&](SegmentNo, const SegmentInfo& info) {
                                   return GcCostBaseline(info, fs_.segment_blocks(),
                                                         rig_.loop.now());
                                 });
  EXPECT_FALSE(victim.has_value());
}

TEST_F(LogFsTest, CleanSegmentMovesValidBlocksAndFreesSegment) {
  InodeNo ino = MakeFile("/f", 16);
  WriteSync(ino, 0, 12 * kPageSize);  // 4 valid blocks left in segment 0
  // Drop cache so the cleaner must read from disk.
  fs_.cache().RemoveInode(ino);
  std::vector<uint64_t> tokens;
  for (PageIdx p = 12; p < 16; ++p) {
    tokens.push_back(*fs_.PageContent(ino, p));
  }
  CleanResult result = CleanSync(0);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.blocks_moved, 4u);
  EXPECT_EQ(result.blocks_read_disk, 4u);
  EXPECT_EQ(result.blocks_from_cache, 0u);
  EXPECT_EQ(fs_.segment(0).valid, 0u);
  // Content preserved at new locations; pages are dirty pending writeback.
  for (PageIdx p = 12; p < 16; ++p) {
    EXPECT_EQ(*fs_.PageContent(ino, p), tokens[p - 12]);
    EXPECT_NE(fs_.SegmentOf(*fs_.Bmap(ino, p)), 0u);
  }
  EXPECT_GT(fs_.cache().DirtyCount(), 0u);
}

TEST_F(LogFsTest, CleanSegmentUsesCachedBlocks) {
  InodeNo ino = MakeFile("/f", 16);
  WriteSync(ino, 0, 12 * kPageSize);
  fs_.cache().RemoveInode(ino);
  // Warm 2 of the 4 remaining valid pages.
  fs_.Read(ino, 12 * kPageSize, 2 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  EXPECT_EQ(fs_.CachedValidBlocksOf(0), 2u);
  CleanResult result = CleanSync(0);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.blocks_moved, 4u);
  EXPECT_EQ(result.blocks_from_cache, 2u);
  EXPECT_EQ(result.blocks_read_disk, 2u);
}

TEST_F(LogFsTest, CleanerReadsEachUncachedRunWithOneRequest) {
  InodeNo ino = MakeFile("/f", 16);  // segment 0
  for (PageIdx p : {2, 3, 7, 11, 12}) {
    WriteSync(ino, p * kPageSize, kPageSize);
  }
  fs_.cache().RemoveInode(ino);
  fs_.Read(ino, 5 * kPageSize, kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  ASSERT_EQ(fs_.ValidBlocksOf(0),
            (std::vector<BlockNo>{0, 1, 4, 5, 6, 8, 9, 10, 13, 14, 15}));
  // Block 5's page is cached, so the uncached valid blocks form 5 runs.
  const std::vector<Submitted> runs =
      RunsOf({0, 1, 4, 6, 8, 9, 10, 13, 14, 15}, IoDir::kRead);
  ASSERT_EQ(runs.size(), 5u);
  SubmitLog log(rig_.obs.trace);
  CleanResult result = CleanSync(0);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(log.Of(IoDir::kRead), runs);
  EXPECT_EQ(result.device_ops, runs.size());
  EXPECT_EQ(result.blocks_read_disk, 10u);
  EXPECT_EQ(result.blocks_from_cache, 1u);
  EXPECT_EQ(result.blocks_moved, 11u);
}

TEST_F(LogFsTest, CleanEmptySegmentIsNoop) {
  CleanResult result = CleanSync(5);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.blocks_moved, 0u);
  EXPECT_EQ(result.device_ops, 0u);
}

TEST_F(LogFsTest, DuetCostPrefersCachedSegments) {
  SimTime now = Seconds(100);
  SegmentInfo a;
  a.valid = 8;
  a.written = 16;
  a.mtime = 0;
  SegmentInfo b = a;
  // Equal utilization and age; b has 6 cached blocks.
  double cost_a = GcCostDuet(a, 16, now, 0);
  double cost_b = GcCostDuet(b, 16, now, 6);
  EXPECT_LT(cost_b, cost_a);
  // Baseline ignores caching.
  EXPECT_EQ(GcCostBaseline(a, 16, now), GcCostBaseline(b, 16, now));
}

TEST_F(LogFsTest, CostFavorsOlderSegmentsAndFewerValidBlocks) {
  SimTime now = Seconds(100);
  SegmentInfo young;
  young.valid = 8;
  young.written = 16;
  young.mtime = Seconds(99);
  SegmentInfo old = young;
  old.mtime = 0;
  EXPECT_LT(GcCostBaseline(old, 16, now), GcCostBaseline(young, 16, now));
  SegmentInfo sparse = old;
  sparse.valid = 2;
  EXPECT_LT(GcCostBaseline(sparse, 16, now), GcCostBaseline(old, 16, now));
}

TEST_F(LogFsTest, ScatteredWritesWhenNoFreeSegments) {
  // Fill the whole device, then delete one block's worth to create invalid
  // slots, and keep writing.
  std::vector<InodeNo> files;
  for (int i = 0; i < 99; ++i) {
    files.push_back(MakeFile(StrFormat("/f%d", i).c_str(), 16));
  }
  // Device nearly full; overwrite some blocks of the first file. These
  // overwrites invalidate old slots but consume the last segment, pushing
  // the allocator into scattered mode.
  EXPECT_LE(fs_.free_segments(), 1u);
  InodeNo f0 = files[0];
  WriteSync(f0, 0, 8 * kPageSize);
  WriteSync(f0, 0, 8 * kPageSize);
  WriteSync(f0, 0, 8 * kPageSize);
  EXPECT_GT(fs_.scattered_writes(), 0u);
  // Content still correct.
  EXPECT_TRUE(fs_.Bmap(f0, 0).ok());
}

TEST_F(LogFsTest, CleaningRacesWithForegroundWrites) {
  InodeNo ino = MakeFile("/f", 16);
  WriteSync(ino, 0, 8 * kPageSize);
  fs_.cache().RemoveInode(ino);
  // Start cleaning segment 0 and immediately overwrite some of its blocks.
  CleanResult result;
  bool done = false;
  fs_.CleanSegment(0, IoClass::kIdle, [&](const CleanResult& r) {
    result = r;
    done = true;
  });
  fs_.Write(ino, 8 * kPageSize, 4 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.status.ok());
  // Every page still readable with correct mapping.
  for (PageIdx p = 0; p < 16; ++p) {
    EXPECT_TRUE(fs_.Bmap(ino, p).ok());
    EXPECT_TRUE(fs_.BlockInUse(*fs_.Bmap(ino, p)));
  }
}

TEST_F(LogFsTest, ChecksumMismatchDetectedOnRead) {
  InodeNo ino = MakeFile("/f", 4);
  fs_.cache().RemoveInode(ino);
  fs_.CorruptBlock(*fs_.Bmap(ino, 1));
  Status status;
  fs_.Read(ino, 0, 4 * kPageSize, IoClass::kBestEffort,
           [&](const FsIoResult& r) { status = r.status; });
  rig_.loop.Run();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(fs_.checksum_errors_detected(), 1u);
}

// Cleaning doubles as corruption detection: the GC verifies every victim
// block it reads, and refuses to move a corrupt one — re-appending it to the
// log head would mint a fresh valid checksum over rotten content.
TEST_F(LogFsTest, CleanerDetectsCorruptionAndRefusesToMoveIt) {
  InodeNo ino = MakeFile("/f", 16);
  WriteSync(ino, 0, 12 * kPageSize);  // 4 valid blocks left in segment 0
  fs_.cache().RemoveInode(ino);
  BlockNo bad = *fs_.Bmap(ino, 13);
  ASSERT_EQ(fs_.SegmentOf(bad), 0u);
  fs_.CorruptBlock(bad);

  CleanResult result = CleanSync(0);
  EXPECT_EQ(result.checksum_errors, 1u);
  EXPECT_EQ(result.blocks_moved, 3u);  // the other three relocated
  EXPECT_EQ(fs_.checksum_errors_detected(), 1u);
  // The corrupt block stays where it was, still valid (live but rotten), so
  // nothing downstream mistakes the segment for empty.
  EXPECT_EQ(*fs_.Bmap(ino, 13), bad);
  EXPECT_TRUE(fs_.BlockInUse(bad));
  EXPECT_EQ(fs_.segment(0).valid, 1u);
  EXPECT_FALSE(fs_.BlockChecksumOk(bad));
}

TEST_F(LogFsTest, ChecksumFollowsBlockThroughCleaning) {
  InodeNo ino = MakeFile("/f", 16);
  WriteSync(ino, 0, 12 * kPageSize);
  fs_.cache().RemoveInode(ino);
  CleanResult result = CleanSync(0);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.blocks_moved, 4u);
  // Flush the relocated pages; the new locations must verify cleanly.
  fs_.writeback().Sync(nullptr);
  rig_.loop.Run();
  for (PageIdx p = 12; p < 16; ++p) {
    BlockNo b = *fs_.Bmap(ino, p);
    EXPECT_NE(fs_.SegmentOf(b), 0u);
    EXPECT_TRUE(fs_.BlockChecksumOk(b));
  }
}

// A 1000-block device with 64-block segments: 15 full segments and a
// 40-block tail segment. The first file fills segments 0-14, the second the
// tail; deleting the first leaves 15 reusable segments while the log head
// sits at the device end.
class LogFsTruncatedTailTest : public ::testing::Test {
 protected:
  LogFsTruncatedTailTest()
      : rig_(1000), fs_(&rig_.loop, &rig_.device, /*cache_pages=*/64,
                        /*segment_blocks=*/64) {}

  void SetUp() override {
    ASSERT_EQ(fs_.segment_count(), 16u);
    InodeNo first = *fs_.PopulateFile("/a", 15 * 64 * kPageSize);
    tail_ = *fs_.PopulateFile("/b", 40 * kPageSize);
    ASSERT_EQ(fs_.SegmentOf(*fs_.Bmap(tail_, 39)), 15u);
    ASSERT_TRUE(fs_.DeleteFile(first).ok());
  }

  SimRig rig_;
  LogFs fs_;
  InodeNo tail_ = kInvalidInode;
};

TEST_F(LogFsTruncatedTailTest, FullTailSegmentOpensAReusableOne) {
  FsIoResult result;
  bool done = false;
  fs_.Write(tail_, 0, kPageSize, IoClass::kBestEffort, [&](const FsIoResult& r) {
    result = r;
    done = true;
  });
  rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(fs_.SegmentOf(*fs_.Bmap(tail_, 0)), 0u);
  EXPECT_EQ(fs_.scattered_writes(), 0u);
}

TEST_F(LogFsTruncatedTailTest, FreeSegmentsCountsWrittenReusableSegments) {
  EXPECT_EQ(fs_.free_segments(), 15u);
}

}  // namespace
}  // namespace duet
