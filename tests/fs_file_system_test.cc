// Tests for the shared FileSystem data path, instantiated through CowFs.
#include "src/fs/file_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cowfs/cowfs.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class FileSystemTest : public ::testing::Test {
 protected:
  FileSystemTest() : rig_(100'000), fs_(&rig_.loop, &rig_.device, /*cache_pages=*/64) {}

  InodeNo MakeFile(const char* path, uint64_t bytes) {
    Result<InodeNo> ino = fs_.PopulateFile(path, bytes);
    EXPECT_TRUE(ino.ok()) << ino.status().ToString();
    return *ino;
  }

  FsIoResult ReadSync(InodeNo ino, ByteOff off, uint64_t len,
                      IoClass io_class = IoClass::kBestEffort) {
    FsIoResult out;
    bool done = false;
    fs_.Read(ino, off, len, io_class, [&](const FsIoResult& r) {
      out = r;
      done = true;
    });
    rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
    EXPECT_TRUE(done);
    return out;
  }

  FsIoResult WriteSync(InodeNo ino, ByteOff off, uint64_t len) {
    FsIoResult out;
    bool done = false;
    fs_.Write(ino, off, len, IoClass::kBestEffort, [&](const FsIoResult& r) {
      out = r;
      done = true;
    });
    rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
    EXPECT_TRUE(done);
    return out;
  }

  SimRig rig_;
  CowFs fs_;
};

TEST_F(FileSystemTest, PopulateAllocatesAndMaps) {
  InodeNo ino = MakeFile("/f", 10 * kPageSize);
  EXPECT_EQ(fs_.ns().Get(ino)->size, 10 * kPageSize);
  EXPECT_EQ(fs_.allocated_blocks(), 10u);
  for (PageIdx p = 0; p < 10; ++p) {
    Result<BlockNo> block = fs_.Bmap(ino, p);
    ASSERT_TRUE(block.ok());
    Result<FileSystem::BlockOwner> owner = fs_.Rmap(*block);
    ASSERT_TRUE(owner.ok());
    EXPECT_EQ(owner->ino, ino);
    EXPECT_EQ(owner->idx, p);
  }
}

TEST_F(FileSystemTest, ReadMissGoesToDiskAndCaches) {
  InodeNo ino = MakeFile("/f", 8 * kPageSize);
  FsIoResult first = ReadSync(ino, 0, 8 * kPageSize);
  EXPECT_TRUE(first.status.ok());
  EXPECT_EQ(first.pages_requested, 8u);
  EXPECT_EQ(first.pages_from_disk, 8u);
  EXPECT_EQ(first.pages_from_cache, 0u);
  EXPECT_EQ(first.device_ops, 1u);  // contiguous file -> one coalesced read

  FsIoResult second = ReadSync(ino, 0, 8 * kPageSize);
  EXPECT_EQ(second.pages_from_cache, 8u);
  EXPECT_EQ(second.pages_from_disk, 0u);
  EXPECT_EQ(second.device_ops, 0u);
}

TEST_F(FileSystemTest, PartialReadTouchesOnlyItsPages) {
  InodeNo ino = MakeFile("/f", 10 * kPageSize);
  FsIoResult r = ReadSync(ino, 3 * kPageSize, 2 * kPageSize);
  EXPECT_EQ(r.pages_requested, 2u);
  EXPECT_TRUE(fs_.cache().Contains(ino, 3));
  EXPECT_TRUE(fs_.cache().Contains(ino, 4));
  EXPECT_FALSE(fs_.cache().Contains(ino, 0));
}

TEST_F(FileSystemTest, ReadBeyondEofIsEmpty) {
  InodeNo ino = MakeFile("/f", 4 * kPageSize);
  FsIoResult r = ReadSync(ino, 10 * kPageSize, kPageSize);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.pages_requested, 0u);
}

TEST_F(FileSystemTest, ReadClampsToFileSize) {
  InodeNo ino = MakeFile("/f", 3 * kPageSize);
  FsIoResult r = ReadSync(ino, 0, 100 * kPageSize);
  EXPECT_EQ(r.pages_requested, 3u);
}

TEST_F(FileSystemTest, WriteCreatesDirtyPagesWithoutDeviceIo) {
  InodeNo ino = MakeFile("/f", 4 * kPageSize);
  uint64_t ops_before = rig_.device.stats().TotalOps(IoClass::kBestEffort);
  FsIoResult w = WriteSync(ino, 0, 2 * kPageSize);
  EXPECT_TRUE(w.status.ok());
  EXPECT_EQ(w.pages_requested, 2u);
  EXPECT_EQ(fs_.cache().DirtyCount(), 2u);
  // Writes complete in memory; flusher I/O happens later.
  EXPECT_EQ(rig_.device.stats().TotalOps(IoClass::kBestEffort), ops_before);
}

TEST_F(FileSystemTest, AppendExtendsFile) {
  InodeNo ino = MakeFile("/f", kPageSize);
  bool done = false;
  fs_.Append(ino, 3 * kPageSize, IoClass::kBestEffort, [&](const FsIoResult& r) {
    EXPECT_TRUE(r.status.ok());
    done = true;
  });
  rig_.loop.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fs_.ns().Get(ino)->size, 4 * kPageSize);
  EXPECT_TRUE(fs_.Bmap(ino, 3).ok());
}

TEST_F(FileSystemTest, WritebackPersistsTokensToDisk) {
  InodeNo ino = MakeFile("/f", 2 * kPageSize);
  WriteSync(ino, 0, 2 * kPageSize);
  uint64_t cached0 = fs_.cache().Peek(ino, 0)->data;
  bool synced = false;
  fs_.writeback().Sync([&] { synced = true; });
  rig_.loop.Run();
  ASSERT_TRUE(synced);
  EXPECT_EQ(fs_.cache().DirtyCount(), 0u);
  Result<BlockNo> block = fs_.Bmap(ino, 0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(fs_.DiskToken(*block), cached0);
  // Flusher I/O was performed at best-effort priority.
  EXPECT_GT(rig_.device.stats().ops[static_cast<int>(IoClass::kBestEffort)]
                                   [static_cast<int>(IoDir::kWrite)], 0u);
}

TEST_F(FileSystemTest, PageContentPrefersCache) {
  InodeNo ino = MakeFile("/f", kPageSize);
  Result<BlockNo> block = fs_.Bmap(ino, 0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(*fs_.PageContent(ino, 0), fs_.DiskToken(*block));
  WriteSync(ino, 0, kPageSize);  // dirty page, disk now stale
  EXPECT_EQ(*fs_.PageContent(ino, 0), fs_.cache().Peek(ino, 0)->data);
  EXPECT_NE(*fs_.PageContent(ino, 0), fs_.DiskToken(*block));
}

TEST_F(FileSystemTest, DeleteFileReleasesEverything) {
  InodeNo ino = MakeFile("/f", 5 * kPageSize);
  ReadSync(ino, 0, 5 * kPageSize);
  EXPECT_EQ(fs_.cache().CachedPagesOfInode(ino), 5u);
  ASSERT_TRUE(fs_.DeleteFile(ino).ok());
  EXPECT_EQ(fs_.cache().CachedPagesOfInode(ino), 0u);
  EXPECT_EQ(fs_.allocated_blocks(), 0u);
  EXPECT_FALSE(fs_.ns().Exists(ino));
  EXPECT_FALSE(fs_.Bmap(ino, 0).ok());
}

TEST_F(FileSystemTest, DeleteDirectoryFails) {
  InodeNo dir = *fs_.Mkdir("/d");
  EXPECT_EQ(fs_.DeleteFile(dir).code(), StatusCode::kInvalidArgument);
}

TEST_F(FileSystemTest, ReadOfMissingInodeFails) {
  FsIoResult r = ReadSync(12345, 0, kPageSize);
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
}

TEST_F(FileSystemTest, ReadAtIdleClassUsesIdleQueue) {
  InodeNo ino = MakeFile("/f", 4 * kPageSize);
  FsIoResult r = ReadSync(ino, 0, 4 * kPageSize, IoClass::kIdle);
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(rig_.device.stats().TotalOps(IoClass::kIdle), 0u);
  EXPECT_EQ(rig_.device.stats().TotalOps(IoClass::kBestEffort), 0u);
}

TEST_F(FileSystemTest, RedirtiedPageSurvivesWritebackRace) {
  InodeNo ino = MakeFile("/f", kPageSize);
  WriteSync(ino, 0, kPageSize);
  // Start a sync, then re-dirty the page while the flush I/O is in flight.
  bool synced = false;
  fs_.writeback().Sync([&] { synced = true; });
  fs_.Write(ino, 0, kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  EXPECT_TRUE(synced);
  // The final content must end up on disk eventually.
  bool synced2 = false;
  fs_.writeback().Sync([&] { synced2 = true; });
  rig_.loop.Run();
  ASSERT_TRUE(synced2);
  EXPECT_EQ(fs_.cache().DirtyCount(), 0u);
  Result<BlockNo> block = fs_.Bmap(ino, 0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(fs_.DiskToken(*block), fs_.cache().Peek(ino, 0)->data);
}

// The shared request path (SubmitRuns): one device request per run of
// consecutive blocks, submitted in ascending block order, and each caller's
// device_ops is the number of runs.

TEST_F(FileSystemTest, ReadOfAgedFileSubmitsOneRequestPerRunInBlockOrder) {
  Rng rng(3);
  InodeNo ino = *fs_.PopulateFileAged("/aged", 32 * kPageSize, 0.3, rng);
  ReadSync(ino, 8 * kPageSize, 4 * kPageSize);  // cached pages are no misses
  std::vector<BlockNo> misses;
  for (PageIdx p = 0; p < 32; ++p) {
    if (p < 8 || p >= 12) {
      misses.push_back(*fs_.Bmap(ino, p));
    }
  }
  ASSERT_FALSE(std::is_sorted(misses.begin(), misses.end()))
      << "the misses must come out of block order";
  std::sort(misses.begin(), misses.end());
  const std::vector<Submitted> runs = RunsOf(misses, IoDir::kRead);
  ASSERT_LT(runs.size(), misses.size()) << "some run must span blocks";

  SubmitLog log(rig_.obs.trace);
  FsIoResult r = ReadSync(ino, 0, 32 * kPageSize);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(log.Of(IoDir::kRead), runs);
  EXPECT_EQ(r.device_ops, runs.size());
  EXPECT_EQ(r.pages_from_disk, misses.size());
  EXPECT_EQ(r.pages_from_cache, 4u);
}

TEST_F(FileSystemTest, ReadBlocksSortsAndDeduplicatesIntoOneRequestPerRun) {
  InodeNo ino = MakeFile("/f", 16 * kPageSize);
  const BlockNo b = *fs_.Bmap(ino, 0);
  SubmitLog log(rig_.obs.trace);
  RawReadResult result;
  bool done = false;
  fs_.ReadBlocks({b + 9, b + 5, b, b + 2, b + 5, b + 1, b + 9, b + 6}, IoClass::kIdle,
                 [&](const RawReadResult& r) {
                   result = r;
                   done = true;
                 });
  rig_.loop.Run();
  ASSERT_TRUE(done);
  const std::vector<Submitted> runs =
      RunsOf({b, b + 1, b + 2, b + 5, b + 6, b + 9}, IoDir::kRead);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(log.Of(IoDir::kRead), runs);
  EXPECT_EQ(result.device_ops, 3u);
  EXPECT_EQ(result.blocks_read, 6u);
  EXPECT_TRUE(result.status.ok());
  EXPECT_TRUE(result.bad_blocks.empty());
}

TEST_F(FileSystemTest, WritebackSubmitsOneWritePerDirtyRunInBlockOrder) {
  InodeNo ino = MakeFile("/f", 16 * kPageSize);
  // Each pair of rewritten pages takes the next two free blocks (COW), and
  // a file populated between pairs takes the block after them, so the
  // dirty pages map to three runs of two blocks.
  ByteOff off = 0;
  for (const char* filler : {"/g0", "/g1", "/g2"}) {
    WriteSync(ino, off, 2 * kPageSize);
    MakeFile(filler, kPageSize);
    off += 2 * kPageSize;
  }
  ASSERT_EQ(fs_.cache().DirtyCount(), 6u);
  std::vector<BlockNo> dirty;
  for (PageIdx p = 0; p < 6; ++p) {
    dirty.push_back(*fs_.Bmap(ino, p));
  }
  std::sort(dirty.begin(), dirty.end());
  const std::vector<Submitted> runs = RunsOf(dirty, IoDir::kWrite);
  ASSERT_EQ(runs.size(), 3u);

  SubmitLog log(rig_.obs.trace);
  bool synced = false;
  fs_.writeback().Sync([&] { synced = true; });
  rig_.loop.Run();
  ASSERT_TRUE(synced);
  EXPECT_EQ(log.Of(IoDir::kWrite), runs);
  EXPECT_EQ(rig_.device.stats().TotalOps(IoClass::kBestEffort), runs.size());
  EXPECT_EQ(fs_.cache().DirtyCount(), 0u);
}

}  // namespace
}  // namespace duet
