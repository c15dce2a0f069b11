#include "src/cowfs/cowfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/block/durable_image.h"
#include "src/fs/meta_codec.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {

// Reaches cowfs's refcounts, which fsck checks against the references it
// counts, and that count's 4 B form.
class RefcountTestPeer {
 public:
  static void SetRefcount(CowFs* fs, BlockNo block, uint32_t refs) {
    fs->refcount_[block] = refs;
  }
  static std::vector<uint32_t> WideCount(const CowFs& fs) { return fs.CountReferences(); }
};

namespace {

class CowFsTest : public ::testing::Test {
 protected:
  CowFsTest() : rig_(100'000), fs_(&rig_.loop, &rig_.device, /*cache_pages=*/128) {}

  InodeNo MakeFile(const char* path, uint64_t pages) {
    return *fs_.PopulateFile(path, pages * kPageSize);
  }

  void WriteSync(InodeNo ino, ByteOff off, uint64_t len) {
    fs_.Write(ino, off, len, IoClass::kBestEffort, nullptr);
    rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
  }

  void SyncAll() {
    fs_.writeback().Sync(nullptr);
    rig_.loop.Run();
  }

  SimRig rig_;
  CowFs fs_;
};

TEST_F(CowFsTest, ChecksumsValidAfterPopulate) {
  InodeNo ino = MakeFile("/f", 16);
  for (PageIdx p = 0; p < 16; ++p) {
    EXPECT_TRUE(fs_.BlockChecksumOk(*fs_.Bmap(ino, p)));
  }
}

TEST_F(CowFsTest, CorruptionDetectedOnRead) {
  InodeNo ino = MakeFile("/f", 4);
  BlockNo victim = *fs_.Bmap(ino, 2);
  fs_.CorruptBlock(victim);
  EXPECT_FALSE(fs_.BlockChecksumOk(victim));
  Status status;
  fs_.Read(ino, 0, 4 * kPageSize, IoClass::kBestEffort,
           [&](const FsIoResult& r) { status = r.status; });
  rig_.loop.Run();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(fs_.checksum_errors_detected(), 1u);
}

TEST_F(CowFsTest, CorruptionDetectedByRawRead) {
  InodeNo ino = MakeFile("/f", 8);
  const BlockNo first = *fs_.Bmap(ino, 0);
  fs_.CorruptBlock(*fs_.Bmap(ino, 5));
  RawReadResult result;
  bool done = false;
  // Each maximal run of verified blocks is reported once, before any of its
  // pages is cached; the corrupt block splits the file's run in two.
  std::vector<std::pair<BlockNo, uint32_t>> verified;
  bool cached_before_report = false;
  fs_.ReadRawBlocks(
      0, 1000, IoClass::kIdle,
      [&](BlockNo b, uint32_t n) {
        verified.emplace_back(b, n);
        for (PageIdx p = 0; p < 8; ++p) {
          cached_before_report |= fs_.cache().Contains(ino, p);
        }
      },
      [&](const RawReadResult& r) {
        result = r;
        done = true;
      });
  rig_.loop.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.blocks_read, 8u);
  EXPECT_EQ(result.checksum_errors, 1u);
  EXPECT_EQ(result.status.code(), StatusCode::kCorruption);
  EXPECT_EQ(verified, (std::vector<std::pair<BlockNo, uint32_t>>{{first, 5}, {first + 6, 2}}));
  EXPECT_FALSE(cached_before_report);
  EXPECT_EQ(fs_.cache().PageCount(), 7u);
}

// A block freed while its read is in flight holds nothing to verify: it is
// read, but not reported verified, and its page is not cached.
TEST_F(CowFsTest, RawReadReportsOnlyBlocksStillInUse) {
  InodeNo keep = MakeFile("/keep", 4);
  InodeNo gone = MakeFile("/gone", 4);
  const BlockNo first = *fs_.Bmap(keep, 0);
  ASSERT_EQ(*fs_.Bmap(gone, 0), first + 4);
  std::vector<std::pair<BlockNo, uint32_t>> verified;
  RawReadResult result;
  fs_.ReadRawBlocks(
      first, 8, IoClass::kIdle, [&](BlockNo b, uint32_t n) { verified.emplace_back(b, n); },
      [&](const RawReadResult& r) { result = r; });
  ASSERT_TRUE(fs_.DeleteFile(gone).ok());
  rig_.loop.Run();
  EXPECT_EQ(result.blocks_read, 8u);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(verified, (std::vector<std::pair<BlockNo, uint32_t>>{{first, 4}}));
  EXPECT_EQ(fs_.cache().PageCount(), 4u);
}

TEST_F(CowFsTest, RawReadSkipsUnallocatedBlocks) {
  MakeFile("/f", 4);
  bool done = false;
  RawReadResult result;
  // Range far beyond any allocation.
  fs_.ReadRawBlocks(50'000, 1000, IoClass::kIdle, [](BlockNo, uint32_t) {},
                    [&](const RawReadResult& r) {
                      result = r;
                      done = true;
                    });
  rig_.loop.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.blocks_read, 0u);
  EXPECT_EQ(result.device_ops, 0u);
}

TEST_F(CowFsTest, CowWriteRelocatesBlock) {
  InodeNo ino = MakeFile("/f", 2);
  BlockNo before = *fs_.Bmap(ino, 0);
  WriteSync(ino, 0, kPageSize);
  BlockNo after = *fs_.Bmap(ino, 0);
  EXPECT_NE(before, after);
  EXPECT_FALSE(fs_.BlockInUse(before));  // old copy freed (no snapshot)
}

TEST_F(CowFsTest, RewriteOfUnflushedPageReusesBlock) {
  InodeNo ino = MakeFile("/f", 1);
  WriteSync(ino, 0, kPageSize);
  BlockNo first_cow = *fs_.Bmap(ino, 0);
  WriteSync(ino, 0, kPageSize);  // still dirty, not snapshot-shared
  EXPECT_EQ(*fs_.Bmap(ino, 0), first_cow);
}

TEST_F(CowFsTest, SnapshotPreservesOldBlocks) {
  InodeNo ino = MakeFile("/f", 4);
  BlockNo old_block = *fs_.Bmap(ino, 1);
  uint64_t old_token = fs_.DiskToken(old_block);
  Result<SnapshotId> snap = fs_.CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  // Shared: the live file maps the page to the snapshot's block.
  auto snapshot_block = [&] { return fs_.GetSnapshot(*snap)->files.at(ino).blocks[1]; };
  EXPECT_EQ(*fs_.Bmap(ino, 1), snapshot_block());

  WriteSync(ino, kPageSize, kPageSize);  // overwrite page 1
  SyncAll();

  // Sharing broken; snapshot still references the preserved old block.
  EXPECT_NE(*fs_.Bmap(ino, 1), snapshot_block());
  EXPECT_TRUE(fs_.BlockInUse(old_block));
  EXPECT_EQ(fs_.DiskToken(old_block), old_token);
  EXPECT_NE(*fs_.Bmap(ino, 1), old_block);
  const CowFs::Snapshot* s = fs_.GetSnapshot(*snap);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->files.at(ino).blocks[1], old_block);
}

TEST_F(CowFsTest, DeleteSnapshotFreesPreservedBlocks) {
  InodeNo ino = MakeFile("/f", 2);
  BlockNo old_block = *fs_.Bmap(ino, 0);
  SnapshotId snap = *fs_.CreateSnapshot();
  WriteSync(ino, 0, kPageSize);
  EXPECT_TRUE(fs_.BlockInUse(old_block));  // kept alive by the snapshot
  ASSERT_TRUE(fs_.DeleteSnapshot(snap).ok());
  EXPECT_FALSE(fs_.BlockInUse(old_block));
  EXPECT_FALSE(fs_.DeleteSnapshot(snap).ok());  // double delete
}

TEST_F(CowFsTest, DeletedFileBlocksSurviveViaSnapshot) {
  InodeNo ino = MakeFile("/f", 3);
  BlockNo b0 = *fs_.Bmap(ino, 0);
  SnapshotId snap = *fs_.CreateSnapshot();
  ASSERT_TRUE(fs_.DeleteFile(ino).ok());
  EXPECT_TRUE(fs_.BlockInUse(b0));
  const CowFs::Snapshot* s = fs_.GetSnapshot(snap);
  EXPECT_EQ(s->files.at(ino).blocks.size(), 3u);
  ASSERT_TRUE(fs_.DeleteSnapshot(snap).ok());
  EXPECT_FALSE(fs_.BlockInUse(b0));
}

TEST_F(CowFsTest, SnapshotAsyncSyncsFirst) {
  InodeNo ino = MakeFile("/f", 2);
  WriteSync(ino, 0, 2 * kPageSize);
  ASSERT_GT(fs_.cache().DirtyCount(), 0u);
  bool done = false;
  fs_.CreateSnapshotAsync([&](Result<SnapshotId> snap) {
    EXPECT_TRUE(snap.ok());
    done = true;
  });
  rig_.loop.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fs_.cache().DirtyCount(), 0u);
}

TEST_F(CowFsTest, ExtentCountOnContiguousAndFragmentedFiles) {
  InodeNo contiguous = MakeFile("/c", 32);
  EXPECT_EQ(fs_.ExtentCount(contiguous), 1u);
  Rng rng(5);
  Result<InodeNo> frag = fs_.PopulateFileAged("/frag", 32 * kPageSize, 0.5, rng);
  ASSERT_TRUE(frag.ok());
  EXPECT_GT(fs_.ExtentCount(*frag), 8u);
}

// Exposes the forward map, to check population sizes each one exactly.
class MapPeekCowFs : public CowFs {
 public:
  using CowFs::CowFs;
  const std::vector<BlockNo>& MapVector(InodeNo ino) const { return fmap_.at(ino).blocks; }
};

// The placement population must reproduce page by page: each page takes the
// first free block at or after the allocation cursor (wrapping to 0), and
// the cursor moves just past it. Aged population first jumps the cursor to
// a random block with probability `break_prob`, and restores it after the
// file. Every page gets the next content token.
struct PlacementModel {
  explicit PlacementModel(uint64_t capacity) : used(capacity, false) {}

  std::vector<BlockNo> Place(uint64_t pages, double break_prob, Rng* rng) {
    std::vector<BlockNo> blocks;
    BlockNo saved = cursor;
    for (uint64_t p = 0; p < pages; ++p) {
      if (rng != nullptr && rng->Chance(break_prob)) {
        cursor = rng->Uniform(used.size());
      }
      BlockNo b = cursor < used.size() ? cursor : 0;
      while (used[b]) {
        b = (b + 1) % used.size();
      }
      used[b] = true;
      cursor = b + 1;
      blocks.push_back(b);
      tokens.push_back(token += 0x9e3779b97f4a7c15ULL);
    }
    if (rng != nullptr) {
      cursor = saved;
    }
    return blocks;
  }

  std::vector<bool> used;
  BlockNo cursor = 0;
  uint64_t token = 1;
  std::vector<uint64_t> tokens;  // in population order
};

TEST(CowFsPopulateTest, LayoutMatchesPerPagePlacement) {
  SimRig rig(20'000);
  MapPeekCowFs fs(&rig.loop, &rig.device, /*cache_pages=*/128);
  PlacementModel model(fs.capacity_blocks());
  Rng fs_rng(11);
  Rng model_rng(11);
  std::vector<std::pair<InodeNo, std::vector<BlockNo>>> files;
  std::vector<std::string> paths;  // parallel to `files`
  // Plain and aged files interleaved, with a hole left by a deleted file.
  struct Spec {
    uint64_t pages;
    bool aged;
  };
  for (Spec spec : {Spec{40, false}, Spec{64, true}, Spec{33, false}, Spec{50, true},
                    Spec{7, false}}) {
    std::string path = "/f" + std::to_string(files.size());
    Result<InodeNo> ino =
        spec.aged ? fs.PopulateFileAged(path, spec.pages * kPageSize, 0.3, fs_rng)
                  : fs.PopulateFile(path, spec.pages * kPageSize);
    ASSERT_TRUE(ino.ok());
    paths.push_back(path);
    files.emplace_back(*ino, model.Place(spec.pages, 0.3, spec.aged ? &model_rng : nullptr));
    EXPECT_EQ(fs.alloc_cursor(), model.cursor) << path;
  }
  ASSERT_TRUE(fs.DeleteFile(files[0].first).ok());
  for (BlockNo b : files[0].second) {
    model.used[b] = false;
  }
  files.erase(files.begin());
  EXPECT_FALSE(fs.ns().Resolve(paths.front()).ok());
  paths.erase(paths.begin());
  BlockNo cursor_before_aged = fs.alloc_cursor();
  Result<InodeNo> aged = fs.PopulateFileAged("/late", 90 * kPageSize, 0.3, fs_rng);
  ASSERT_TRUE(aged.ok());
  paths.push_back("/late");
  files.emplace_back(*aged, model.Place(90, 0.3, &model_rng));
  EXPECT_EQ(fs.alloc_cursor(), cursor_before_aged);  // the aged file restored it
  EXPECT_EQ(fs_rng.Next(), model_rng.Next());        // same number of draws

  // Every populated path resolves to its file, with the populated size;
  // inode numbers count up from the root's in creation order.
  InodeNo want_ino = fs.ns().root() + 2;  // "/f0", since deleted, was root + 1
  for (size_t f = 0; f < files.size(); ++f) {
    Result<InodeNo> resolved = fs.ns().Resolve(paths[f]);
    ASSERT_TRUE(resolved.ok()) << paths[f];
    EXPECT_EQ(*resolved, files[f].first) << paths[f];
    EXPECT_EQ(files[f].first, want_ino++) << paths[f];
    EXPECT_EQ(fs.ns().Get(*resolved)->size, files[f].second.size() * kPageSize) << paths[f];
  }

  size_t token_at = 40;  // the deleted first file took the first 40 tokens
  for (const auto& [ino, blocks] : files) {
    const std::vector<BlockNo>& map = fs.MapVector(ino);
    EXPECT_EQ(map, blocks);
    EXPECT_EQ(map.capacity(), blocks.size());  // sized once, exactly
    for (PageIdx p = 0; p < blocks.size(); ++p) {
      Result<CowFs::BlockOwner> owner = fs.Rmap(blocks[p]);
      ASSERT_TRUE(owner.ok());
      EXPECT_EQ(owner->ino, ino);
      EXPECT_EQ(owner->idx, p);
      EXPECT_EQ(fs.BlockRefcount(blocks[p]), 1u);
      EXPECT_EQ(fs.DiskToken(blocks[p]), model.tokens[token_at++]);
      EXPECT_TRUE(fs.BlockChecksumOk(blocks[p]));
    }
  }
}

// Extent maps are indexed by inode number, so creating a file can grow the
// table under every earlier file's map. Files created, written, appended to
// and deleted in between keep their own mappings, and the whole set stays
// fsck-clean through a snapshot, a checkpoint and a mount.
TEST_F(CowFsTest, ExtentMapsStayStableAsFilesAreCreated) {
  DurableImage image(100'000);
  fs_.AttachDurableImage(&image);
  InodeNo first = MakeFile("/first", 4);
  fs_.SnapshotToDurable();
  std::vector<std::pair<InodeNo, std::vector<BlockNo>>> files;
  auto blocks_of = [this](InodeNo ino) {
    std::vector<BlockNo> blocks;
    for (PageIdx p = 0; p < fs_.ns().Get(ino)->PageCount(); ++p) {
      blocks.push_back(*fs_.Bmap(ino, p));
    }
    return blocks;
  };
  InodeNo doomed = kInvalidInode;
  for (int i = 0; i < 200; ++i) {
    InodeNo ino = *fs_.CreateFile("/g" + std::to_string(i));
    // Writes map their pages synchronously; the first file grows in between.
    fs_.Write(ino, 0, (1 + i % 3) * kPageSize, IoClass::kBestEffort, nullptr);
    if (i % 40 == 0) {
      fs_.Append(first, kPageSize, IoClass::kBestEffort, nullptr);
    }
    if (i == 17) {
      doomed = ino;
      continue;
    }
    files.emplace_back(ino, blocks_of(ino));
  }
  ASSERT_TRUE(fs_.DeleteFile(doomed).ok());
  EXPECT_EQ(fs_.Bmap(doomed, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fs_.ns().Get(first)->PageCount(), 9u);
  files.emplace_back(first, blocks_of(first));
  for (const auto& [ino, blocks] : files) {
    EXPECT_EQ(blocks_of(ino), blocks) << "inode " << ino;
    for (PageIdx p = 0; p < blocks.size(); ++p) {
      EXPECT_EQ(fs_.Rmap(blocks[p])->ino, ino);
      EXPECT_EQ(fs_.Rmap(blocks[p])->idx, p);
    }
  }
  SyncAll();
  Result<SnapshotId> snap = fs_.CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(fs_.GetSnapshot(*snap)->files.size(), files.size());
  EXPECT_TRUE(fs_.CheckConsistency().clean());

  bool committed = false;
  fs_.Checkpoint([&committed] { committed = true; });
  rig_.loop.Run();
  ASSERT_TRUE(committed);
  SimRig rig2(100'000);
  CowFs mounted(&rig2.loop, &rig2.device, /*cache_pages=*/128);
  mounted.AttachDurableImage(&image);
  MountReport report;
  mounted.Mount([&report](const MountReport& r) { report = r; });
  rig2.loop.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(mounted.CheckConsistency().clean());
  for (const auto& [ino, blocks] : files) {
    for (PageIdx p = 0; p < blocks.size(); ++p) {
      EXPECT_EQ(mounted.BlockOf(ino, p), blocks[p]) << "inode " << ino << " page " << p;
    }
  }
  EXPECT_EQ(mounted.BlockOf(doomed, 0), kInvalidBlock);
}

TEST_F(CowFsTest, DefragProducesContiguousFile) {
  Rng rng(7);
  InodeNo ino = *fs_.PopulateFileAged("/frag", 64 * kPageSize, 0.5, rng);
  uint64_t before = fs_.ExtentCount(ino);
  ASSERT_GT(before, 4u);
  std::vector<uint64_t> tokens;
  for (PageIdx p = 0; p < 64; ++p) {
    tokens.push_back(*fs_.PageContent(ino, p));
  }
  DefragResult result;
  bool done = false;
  fs_.DefragFile(ino, IoClass::kIdle, [&](const DefragResult& r) {
    result = r;
    done = true;
  });
  rig_.loop.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.extents_before, before);
  EXPECT_LT(result.extents_after, before);
  EXPECT_LE(result.extents_after, 2u);
  EXPECT_EQ(result.pages, 64u);
  EXPECT_EQ(result.pages_written, 64u);
  // Content is preserved.
  for (PageIdx p = 0; p < 64; ++p) {
    EXPECT_EQ(*fs_.PageContent(ino, p), tokens[p]) << "page " << p;
  }
  // Old blocks freed, new ones checksummed.
  for (PageIdx p = 0; p < 64; ++p) {
    EXPECT_TRUE(fs_.BlockChecksumOk(*fs_.Bmap(ino, p)));
  }
}

// A defrag whose destination wraps past the device's end, on a device filled
// past the allocation cursor: first with fewer free blocks than the file has
// pages, then with room. Every page keeps a block of its own, the cursor
// stays put, and fsck stays clean.
TEST(CowFsDefragTest, DestinationWrapsWithoutSharingABlock) {
  constexpr uint64_t kCapacity = 1024;
  SimRig rig(kCapacity);
  CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/128);
  Rng rng(5);
  InodeNo low = *fs.PopulateFile("/low", 20 * kPageSize);  // blocks 0-19
  InodeNo frag = *fs.PopulateFileAged("/frag", 64 * kPageSize, 1.0, rng);
  // Leaves the last 30 free blocks after the cursor; deleting /low frees 20
  // before it.
  InodeNo fill = *fs.PopulateFile("/fill", (kCapacity - 20 - 64 - 30) * kPageSize);
  ASSERT_TRUE(fs.DeleteFile(low).ok());
  ASSERT_EQ(fs.allocated_blocks(), kCapacity - 50);
  const BlockNo cursor = fs.alloc_cursor();
  auto defrag = [&] {
    DefragResult result;
    bool done = false;
    fs.DefragFile(frag, IoClass::kIdle, [&](const DefragResult& r) {
      result = r;
      done = true;
    });
    rig.loop.Run();
    EXPECT_TRUE(done);
    return result;
  };
  auto expect_own_blocks = [&](const char* step) {
    std::vector<BlockNo> blocks;
    for (PageIdx p = 0; p < 64; ++p) {
      blocks.push_back(*fs.Bmap(frag, p));
    }
    std::sort(blocks.begin(), blocks.end());
    EXPECT_EQ(std::adjacent_find(blocks.begin(), blocks.end()), blocks.end())
        << step << ": two pages share a block";
    FsckReport fsck = fs.CheckConsistency();
    EXPECT_TRUE(fsck.clean()) << step << ": " << fsck.structural_errors
                              << " structural errors, first bad block "
                              << fsck.first_bad_block;
    EXPECT_EQ(fs.alloc_cursor(), cursor) << step;
  };

  // 50 free blocks for 64 pages: no destination, and nothing moves.
  DefragResult full = defrag();
  EXPECT_EQ(full.status.code(), StatusCode::kNoSpace) << full.status.ToString();
  EXPECT_EQ(fs.allocated_blocks(), kCapacity - 50);
  expect_own_blocks("no room");

  // With room, the destination runs from the cursor to the device's end,
  // then on from block 0.
  ASSERT_TRUE(fs.DeleteFile(fill).ok());
  DefragResult moved = defrag();
  ASSERT_TRUE(moved.status.ok()) << moved.status.ToString();
  EXPECT_EQ(moved.pages_written, 64u);
  EXPECT_GE(*fs.Bmap(frag, 0), cursor);
  EXPECT_LT(*fs.Bmap(frag, 63), cursor);
  expect_own_blocks("room");
}

TEST_F(CowFsTest, DefragSavesCachedReads) {
  Rng rng(9);
  InodeNo ino = *fs_.PopulateFileAged("/frag", 32 * kPageSize, 0.4, rng);
  // Warm half the file into the cache.
  fs_.Read(ino, 0, 16 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  DefragResult result;
  fs_.DefragFile(ino, IoClass::kIdle, [&](const DefragResult& r) { result = r; });
  rig_.loop.Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.pages_from_cache, 16u);
  EXPECT_EQ(result.pages_read_disk, 16u);
}

TEST_F(CowFsTest, DefragCountsDirtyPagesAsSavedWrites) {
  InodeNo ino = MakeFile("/f", 8);
  WriteSync(ino, 0, 4 * kPageSize);  // 4 dirty pages
  DefragResult result;
  fs_.DefragFile(ino, IoClass::kIdle, [&](const DefragResult& r) { result = r; });
  rig_.loop.Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.dirty_pages, 4u);
  // After defrag the file's pages are clean (transaction flushed them).
  EXPECT_EQ(fs_.cache().DirtyCount(), 0u);
}

TEST_F(CowFsTest, NextAllocatedScansPhysicalOrder) {
  InodeNo a = MakeFile("/a", 4);
  BlockNo first = *fs_.Bmap(a, 0);
  EXPECT_EQ(fs_.NextBlockInUse(0), first);
  EXPECT_EQ(fs_.NextBlockInUse(first + 100), std::nullopt);
}

TEST_F(CowFsTest, RefcountsTrackSharing) {
  InodeNo ino = MakeFile("/f", 1);
  BlockNo b = *fs_.Bmap(ino, 0);
  EXPECT_EQ(fs_.BlockRefcount(b), 1u);
  SnapshotId s1 = *fs_.CreateSnapshot();
  EXPECT_EQ(fs_.BlockRefcount(b), 2u);
  SnapshotId s2 = *fs_.CreateSnapshot();
  EXPECT_EQ(fs_.BlockRefcount(b), 3u);
  ASSERT_TRUE(fs_.DeleteSnapshot(s1).ok());
  ASSERT_TRUE(fs_.DeleteSnapshot(s2).ok());
  EXPECT_EQ(fs_.BlockRefcount(b), 1u);
}

// Regression: corrupting the disk copy of a page that is currently cached
// must not be masked forever. The cached (clean) copy may serve reads while
// it lives, but once evicted the next read goes to disk and must detect the
// corruption — and the failed read must not re-populate the cache.
TEST_F(CowFsTest, CorruptionOfCachedBlockDetectedAfterEviction) {
  InodeNo ino = MakeFile("/f", 4);
  // Warm the cache with the whole file.
  fs_.Read(ino, 0, 4 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.Run();
  ASSERT_TRUE(fs_.cache().Contains(ino, 2));

  BlockNo victim = *fs_.Bmap(ino, 2);
  fs_.CorruptBlock(victim);

  // While cached, reads are served from the intact in-memory copy.
  Status cached_read;
  fs_.Read(ino, 0, 4 * kPageSize, IoClass::kBestEffort,
           [&](const FsIoResult& r) { cached_read = r.status; });
  rig_.loop.Run();
  EXPECT_TRUE(cached_read.ok());
  EXPECT_EQ(fs_.checksum_errors_detected(), 0u);

  // Evict, then re-read: the disk copy must fail verification.
  ASSERT_TRUE(fs_.cache().Remove(ino, 2));
  Status disk_read;
  fs_.Read(ino, 0, 4 * kPageSize, IoClass::kBestEffort,
           [&](const FsIoResult& r) { disk_read = r.status; });
  rig_.loop.Run();
  EXPECT_EQ(disk_read.code(), StatusCode::kCorruption);
  EXPECT_EQ(fs_.checksum_errors_detected(), 1u);
  // The corrupt content must not have been cached.
  EXPECT_FALSE(fs_.cache().Contains(ino, 2));

  // Still detectable on every later read (nothing laundered the fault).
  Status third_read;
  fs_.Read(ino, 2 * kPageSize, kPageSize, IoClass::kBestEffort,
           [&](const FsIoResult& r) { third_read = r.status; });
  rig_.loop.Run();
  EXPECT_EQ(third_read.code(), StatusCode::kCorruption);
  EXPECT_EQ(fs_.checksum_errors_detected(), 2u);
}

// RepairBlocks rewrites a corrupt block from the DUP mirror when no clean
// cached copy exists, and reports unrecoverable when both copies rotted.
TEST_F(CowFsTest, RepairBlocksUsesMirrorThenReportsUnrecoverable) {
  InodeNo ino = MakeFile("/f", 4);
  BlockNo fixable = *fs_.Bmap(ino, 1);
  BlockNo doomed = *fs_.Bmap(ino, 3);
  fs_.CorruptBlock(fixable);                     // mirror stays intact
  fs_.CorruptBlock(doomed, /*also_mirror=*/true);

  CowFs::RepairResult result;
  bool done = false;
  fs_.RepairBlocks({fixable, doomed}, IoClass::kBestEffort,
                   [&](const CowFs::RepairResult& r) {
                     result = r;
                     done = true;
                   });
  rig_.loop.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.attempted, 2u);
  EXPECT_EQ(result.repaired_from_mirror, 1u);
  EXPECT_EQ(result.unrecoverable, 1u);
  EXPECT_TRUE(fs_.BlockChecksumOk(fixable));
  EXPECT_FALSE(fs_.BlockChecksumOk(doomed));
}

// Repair takes a candidate copy only when its CRC32C equals the block's
// stored checksum. A snapshot keeps a page's old block after a COW write,
// and the reverse map still names that page as the old block's owner, so
// the page's clean cached copy (the new content) is a candidate for the old
// block too, and must be turned down.
TEST_F(CowFsTest, RepairChecksCandidatesAgainstTheStoredChecksum) {
  InodeNo ino = MakeFile("/f", 1);
  const BlockNo old_block = *fs_.Bmap(ino, 0);
  const uint64_t old_token = fs_.DiskToken(old_block);
  ASSERT_TRUE(fs_.CreateSnapshot().ok());
  WriteSync(ino, 0, kPageSize);
  SyncAll();
  const BlockNo live = *fs_.Bmap(ino, 0);
  ASSERT_NE(live, old_block);
  ASSERT_EQ(fs_.Rmap(old_block)->ino, ino);
  const CachedPage* page = fs_.cache().Peek(ino, 0);
  ASSERT_TRUE(page != nullptr && !page->dirty);
  const uint64_t new_token = page->data;

  auto repair = [&](BlockNo block) {
    CowFs::RepairResult result;
    fs_.RepairBlocks({block}, IoClass::kBestEffort,
                     [&](const CowFs::RepairResult& r) { result = r; });
    rig_.loop.Run();
    EXPECT_EQ(result.attempted, 1u);
    return result;
  };
  // The live block: the cached copy matches, so repair costs no read.
  fs_.CorruptBlock(live);
  CowFs::RepairResult r = repair(live);
  EXPECT_EQ(r.repaired_from_cache, 1u);
  EXPECT_EQ(r.device_reads, 0u);
  EXPECT_EQ(fs_.DiskToken(live), new_token);
  EXPECT_TRUE(fs_.BlockChecksumOk(live));
  // The snapshot's block: the cached copy does not match, the mirror does.
  fs_.CorruptBlock(old_block);
  r = repair(old_block);
  EXPECT_EQ(r.repaired_from_cache, 0u);
  EXPECT_EQ(r.repaired_from_mirror, 1u);
  EXPECT_EQ(fs_.DiskToken(old_block), old_token);
  EXPECT_TRUE(fs_.BlockChecksumOk(old_block));
  // Both copies rotted: no candidate matches, cached page or not.
  fs_.CorruptBlock(old_block, /*also_mirror=*/true);
  r = repair(old_block);
  EXPECT_EQ(r.repaired(), 0u);
  EXPECT_EQ(r.unrecoverable, 1u);
  EXPECT_FALSE(fs_.BlockChecksumOk(old_block));
  EXPECT_EQ(fs_.CheckConsistency().checksum_errors, 1u);
}

// Population writes each block's token with its own checksum, so a block
// freed while corrupt reads clean once a new file takes it.
TEST(CowFsChecksumTest, PopulationOverAFreedCorruptBlockReadsClean) {
  for (bool aged : {false, true}) {
    SCOPED_TRACE(aged);
    SimRig rig(64);
    CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/16);
    Rng rng(3);
    InodeNo first = *fs.PopulateFile("/a", 64 * kPageSize);
    const BlockNo victim = *fs.Bmap(first, 10);
    fs.CorruptBlock(victim);
    ASSERT_FALSE(fs.BlockChecksumOk(victim));
    ASSERT_TRUE(fs.DeleteFile(first).ok());
    // The device is full again afterwards: the new file took every block.
    Result<InodeNo> second = aged ? fs.PopulateFileAged("/b", 64 * kPageSize, 0.3, rng)
                                  : fs.PopulateFile("/b", 64 * kPageSize);
    ASSERT_TRUE(second.ok());
    ASSERT_EQ(fs.allocated_blocks(), 64u);
    EXPECT_TRUE(fs.BlockChecksumOk(victim));
    EXPECT_TRUE(fs.CheckConsistency().clean());
  }
}

// fsck counts a block's references in one byte, and counts again in 4 B
// when a byte saturates: at 255 snapshots a block shared by all of them
// has 256 references. Either way a clean tree is clean, the refcounts agree
// with the 4 B count, and a wrong refcount is caught, on the shared block
// and on one with a single reference.
class CowFsFsckCountTest : public ::testing::TestWithParam<int> {};

TEST_P(CowFsFsckCountTest, ByteCountMatchesTheWideCount) {
  const int snapshots = GetParam();
  SimRig rig(1024);
  CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/16);
  InodeNo shared = *fs.PopulateFile("/shared", 2 * kPageSize);
  for (int i = 0; i < snapshots; ++i) {
    ASSERT_TRUE(fs.CreateSnapshot().ok());
  }
  InodeNo late = *fs.PopulateFile("/late", kPageSize);
  const BlockNo hot = *fs.Bmap(shared, 0);
  const BlockNo single = *fs.Bmap(late, 0);
  ASSERT_EQ(fs.BlockRefcount(hot), static_cast<uint32_t>(snapshots) + 1);
  ASSERT_EQ(fs.BlockRefcount(single), 1u);

  EXPECT_TRUE(fs.CheckConsistency().clean());
  std::vector<uint32_t> wide = RefcountTestPeer::WideCount(fs);
  for (BlockNo b = 0; b < fs.capacity_blocks(); ++b) {
    ASSERT_EQ(wide[b], fs.BlockRefcount(b)) << "block " << b;
  }
  for (BlockNo bad : {hot, single}) {
    SCOPED_TRACE(bad);
    const uint32_t refs = fs.BlockRefcount(bad);
    for (uint32_t wrong : {refs - 1, refs + 1}) {
      RefcountTestPeer::SetRefcount(&fs, bad, wrong);
      FsckReport report = fs.CheckConsistency();
      EXPECT_EQ(report.structural_errors, 1u) << wrong;
      EXPECT_EQ(report.first_bad_block, bad) << wrong;
    }
    RefcountTestPeer::SetRefcount(&fs, bad, refs);
  }
  EXPECT_TRUE(fs.CheckConsistency().clean());
}

// 254 and fewer snapshots fit the byte count (254 gives 255 references, its
// largest value); 255 and more take the 4 B count.
INSTANTIATE_TEST_SUITE_P(Snapshots, CowFsFsckCountTest, ::testing::Values(3, 254, 255, 300));

// Exposes the DUP mirror and the stored checksums, to compare them block by
// block with a model.
class MirrorPeekCowFs : public CowFs {
 public:
  using CowFs::CowFs;
  using FileSystem::StoredChecksum;
  uint64_t Mirror(BlockNo block) const { return MirrorToken(block); }
};

uint32_t TokenCrc(uint64_t token) { return Crc32c(&token, sizeof(token)); }

// The DUP mirror as a dense copy of every block, next to the primary, its
// checksum and the durable image's record: the layout cowfs kept before it
// stored only the mirrors that differ. Corruption flips with the same XOR
// constant as FileSystem's.
struct DenseMirrorModel {
  static constexpr uint64_t kFlip = 0xdeadbeefcafef00dULL;
  struct Durable {
    bool present = false;
    uint64_t token = 0;
    uint32_t csum = 0;
  };

  explicit DenseMirrorModel(uint64_t capacity)
      : primary(capacity, 0), mirror(capacity, 0), csum(capacity, TokenCrc(0)),
        durable(capacity) {}

  // A completed write: both copies take the token, and the drive's write
  // cache holds it until the next device flush.
  void Flushed(BlockNo b, uint64_t token) {
    primary[b] = mirror[b] = token;
    csum[b] = TokenCrc(token);
    unflushed.emplace_back(b, Durable{true, token, csum[b]});
  }
  void Corrupt(BlockNo b, bool both) {
    primary[b] ^= kFlip;
    if (both) {
      mirror[b] ^= kFlip;
    }
    if (durable[b].present) {
      durable[b].token ^= kFlip;
    }
  }
  // A device flush commits what every write since the last one carried.
  void DeviceFlushed() {
    for (const auto& [b, record] : unflushed) {
      durable[b] = record;
    }
    unflushed.clear();
  }
  // Mount on a fresh stack: blank blocks, the checkpointed tree reloaded from
  // the image, and the mirror resilvered from it.
  void Remounted(const std::vector<BlockNo>& in_use) {
    std::fill(primary.begin(), primary.end(), 0);
    std::fill(csum.begin(), csum.end(), TokenCrc(0));
    unflushed.clear();
    for (BlockNo b : in_use) {
      if (durable[b].present) {
        primary[b] = durable[b].token;
        csum[b] = durable[b].csum;
      }
    }
    mirror = primary;
  }

  std::vector<uint64_t> primary;
  std::vector<uint64_t> mirror;
  std::vector<uint32_t> csum;
  std::vector<Durable> durable;
  std::vector<std::pair<BlockNo, Durable>> unflushed;  // in write order
};

// Seeded differential test of the sparse DUP mirror: cowfs and the dense
// model go through the same random sequence of primary-only and both-copies
// corruption, rewrites flushed to disk, cache drops, repairs, checkpoints
// and remounts after a crash. Every repair must pick the source the model
// picks (clean cached page, mirror, or none), and every block's primary,
// mirror and stored checksum must match the model after every step.
TEST(CowFsMirrorDifferentialTest, SparseMirrorMatchesDenseModel) {
  // A small device, so the allocator soon hands out blocks freed by COW
  // rewrites again, diverged mirrors included.
  constexpr uint64_t kCapacity = 256;
  constexpr int kFiles = 4;
  constexpr uint64_t kPagesPerFile = 24;
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    DurableImage image(kCapacity);
    auto rig = std::make_unique<SimRig>(kCapacity, Micros(100));
    auto fs = std::make_unique<MirrorPeekCowFs>(&rig->loop, &rig->device, /*cache_pages=*/32);
    DenseMirrorModel model(kCapacity);
    std::vector<InodeNo> files;
    for (int f = 0; f < kFiles; ++f) {
      Result<InodeNo> ino = fs->PopulateFile("/f" + std::to_string(f), kPagesPerFile * kPageSize);
      ASSERT_TRUE(ino.ok());
      files.push_back(*ino);
    }
    // Every file page and the block backing it, in file order.
    auto mapped = [&] {
      std::vector<std::pair<InodeNo, PageIdx>> pages;
      std::vector<BlockNo> blocks;
      for (InodeNo ino : files) {
        for (PageIdx p = 0; p < kPagesPerFile; ++p) {
          pages.emplace_back(ino, p);
          blocks.push_back(*fs->Bmap(ino, p));
        }
      }
      return std::make_pair(pages, blocks);
    };
    for (BlockNo b : mapped().second) {
      model.Flushed(b, fs->DiskToken(b));  // population's tokens are the fs's own
    }
    fs->AttachDurableImage(&image);
    fs->SnapshotToDurable();
    model.DeviceFlushed();
    auto checkpoint = [&] {
      bool committed = false;
      fs->Checkpoint([&] { committed = true; });
      rig->loop.Run();
      ASSERT_TRUE(committed);
      model.DeviceFlushed();
    };
    checkpoint();

    Rng rng(seed);
    uint64_t next_token = 0x5eed0000ULL * seed;
    int repairs_from[3] = {0, 0, 0};  // cache, mirror, none
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(step);
      auto [pages, blocks] = mapped();
      // Half the steps go to eight hot pages, so one block often takes
      // several corruptions, rewrites and repairs in a row.
      size_t pick = rng.Uniform(2) == 0 ? rng.Uniform(8) : rng.Uniform(pages.size());
      auto [ino, idx] = pages[pick];
      BlockNo block = blocks[pick];
      switch (rng.Uniform(13)) {
        case 0:
        case 1:
        case 2:
          fs->CorruptBlock(block);
          model.Corrupt(block, /*both=*/false);
          break;
        case 3:
          fs->CorruptBlock(block, /*also_mirror=*/true);
          model.Corrupt(block, /*both=*/true);
          break;
        case 4:
        case 5: {  // rewrite, flushed by writeback (no device flush)
          uint64_t token = ++next_token;
          fs->CopyIn(ino, idx * kPageSize, kPageSize, {token}, IoClass::kBestEffort, nullptr);
          fs->writeback().Sync(nullptr);
          rig->loop.Run();
          model.Flushed(*fs->Bmap(ino, idx), token);
          break;
        }
        case 6:  // a read caches the page if its primary verifies
          fs->Read(ino, idx * kPageSize, kPageSize, IoClass::kBestEffort, nullptr);
          rig->loop.Run();
          break;
        case 7:  // drop the page, so only the mirror can repair it
          fs->cache().Remove(ino, idx);
          break;
        case 8:
        case 9:
        case 10: {
          // The source the model expects: a clean cached page that matches
          // the stored checksum, else an intact mirror, else none.
          int want = 2;
          uint64_t heal = 0;
          const CachedPage* page = fs->cache().Peek(ino, idx);
          if (page != nullptr && !page->dirty && TokenCrc(page->data) == model.csum[block]) {
            want = 0;
            heal = page->data;
          } else if (TokenCrc(model.mirror[block]) == model.csum[block]) {
            want = 1;
            heal = model.mirror[block];
          }
          CowFs::RepairResult result;
          fs->RepairBlocks({block}, IoClass::kBestEffort,
                           [&](const CowFs::RepairResult& r) { result = r; });
          rig->loop.Run();
          EXPECT_EQ(result.attempted, 1u);
          EXPECT_EQ(result.repaired_from_cache, want == 0 ? 1u : 0u);
          EXPECT_EQ(result.repaired_from_mirror, want == 1 ? 1u : 0u);
          EXPECT_EQ(result.unrecoverable, want == 2 ? 1u : 0u);
          ++repairs_from[want];
          if (want != 2) {
            model.Flushed(block, heal);
          }
          break;
        }
        case 11:
          checkpoint();
          break;
        case 12: {  // power loss, then mount a fresh stack over the image
          rig->device.CrashFreeze();
          fs.reset();
          rig.reset();
          image.Thaw();
          rig = std::make_unique<SimRig>(kCapacity, Micros(100));
          fs = std::make_unique<MirrorPeekCowFs>(&rig->loop, &rig->device, 32);
          fs->AttachDurableImage(&image);
          MountReport report;
          fs->Mount([&](const MountReport& r) { report = r; });
          rig->loop.Run();
          ASSERT_TRUE(report.status.ok()) << report.status.message();
          model.Remounted(mapped().second);
          break;
        }
      }
      for (BlockNo b = 0; b < kCapacity; ++b) {
        ASSERT_EQ(fs->DiskToken(b), model.primary[b]) << "block " << b;
        ASSERT_EQ(fs->Mirror(b), model.mirror[b]) << "block " << b;
        ASSERT_EQ(fs->StoredChecksum(b), model.csum[b]) << "block " << b;
        ASSERT_EQ(fs->BlockChecksumOk(b), TokenCrc(model.primary[b]) == model.csum[b])
            << "block " << b;
      }
    }
    // The sequence reached every repair outcome.
    EXPECT_GT(repairs_from[0], 0);
    EXPECT_GT(repairs_from[1], 0);
    EXPECT_GT(repairs_from[2], 0);
  }
}

// The reverse map packs an owner into 32-bit inode and page fields. A write
// at page 2^32 reaches the limit through the public data path and aborts
// before the extent map grows to that index.
TEST(CowFsDeathTest, ReverseMapRejectsPagePast32Bits) {
  SimRig rig(1024);
  CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/16);
  InodeNo ino = *fs.PopulateFile("/f", kPageSize);
  EXPECT_DEATH(fs.Write(ino, (uint64_t{1} << 32) * kPageSize, kPageSize,
                        IoClass::kBestEffort, nullptr),
               "inode 2 page 4294967296 is past the reverse map's 2\\^32 limit");
}

// A checkpoint naming an inode number past 2^32 (one a long-lived namespace
// could reach) aborts the mount the same way.
TEST(CowFsDeathTest, ReverseMapRejectsInodePast32Bits) {
  constexpr InodeNo kBigIno = (uint64_t{1} << 32) + 5;
  DurableImage image(1024);
  ByteWriter w;
  w.U64(kBigIno + 1);  // next inode number
  w.U64(2);            // inodes: the root and one file
  for (InodeNo ino : {Namespace::kRootIno, kBigIno}) {
    bool root = ino == Namespace::kRootIno;
    w.U64(ino);
    w.U8(root ? 1 : 0);
    w.U64(root ? 0 : kPageSize);
    w.U64(root ? kInvalidInode : Namespace::kRootIno);
    w.Str(root ? "" : "big");
  }
  w.U64(1);  // one extent map: the file's page 0 in block 7
  w.U64(kBigIno);
  w.U64(1);
  w.U64(7);
  w.U64(0);  // no snapshots
  w.U64(1);  // next snapshot id
  CommitCheckpointSlot(&image, "cowfs.sb", 1, w.Take());
  SimRig rig(1024);
  CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/16);
  fs.AttachDurableImage(&image);
  EXPECT_DEATH(fs.Mount([](const MountReport&) {}),
               "inode 4294967301 page 0 is past the reverse map's 2\\^32 limit");
}

}  // namespace
}  // namespace duet
