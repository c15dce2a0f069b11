// Differential test for cowfs's extent-wise population: files populated by
// CowFs::PopulatePages, one pass per run of allocatable blocks, must land
// exactly where a page-by-page loop over a circular scan of the bitmaps puts
// them, with the same tokens, checksums, reverse map, refcounts, cursor and
// random draws, and leave the allocatable index consistent. Devices vary in size
// (a partial last word included), files in size and break probability, and
// blocks taken or pinned beforehand sit at 64-block word edges.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/cowfs/cowfs.h"
#include "src/util/format.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {

// Page-by-page population: each page takes the first block neither in use
// nor pinned from the cursor on, wrapping at the device's end, and the
// cursor moves just past it.
class PopulateReference {
 public:
  static Status PerPage(CowFs* fs, InodeNo ino, uint64_t npages, double break_prob,
                        Rng* rng) {
    if (npages == 0) {
      return Status::Ok();
    }
    std::vector<BlockNo>& blocks = fs->MapFor(ino);
    blocks.reserve(npages);
    BlockNo saved_cursor = fs->alloc_cursor_;
    Status status;
    for (PageIdx p = 0; p < npages; ++p) {
      if (rng != nullptr && rng->Chance(break_prob)) {
        fs->alloc_cursor_ = rng->Uniform(fs->capacity_blocks());
      }
      const uint64_t capacity = fs->capacity_blocks();
      BlockNo block = fs->alloc_cursor_ < capacity ? fs->alloc_cursor_ : 0;
      uint64_t looked = 0;
      while (looked < capacity && (fs->BlockInUse(block) || fs->pinned().Test(block))) {
        block = (block + 1) % capacity;
        ++looked;
      }
      if (looked == capacity) {
        status = Status(StatusCode::kNoSpace, "cowfs full");
        break;
      }
      fs->MarkInUse(block);
      fs->alloc_cursor_ = block + 1;
      fs->refcount_[block] = 1;
      blocks.push_back(block);
      fs->SetOwner(block, ino, p);
      fs->OnBlockFlushed(block, fs->NextToken());
    }
    if (rng != nullptr) {
      fs->alloc_cursor_ = saved_cursor;
    }
    return status;
  }

  static void SetCursor(CowFs* fs, BlockNo cursor) { fs->alloc_cursor_ = cursor; }
};

namespace {

// cowfs with either population, the block store's taking operations, and
// its stored checksums exposed.
class PopulateProbeFs : public CowFs {
 public:
  PopulateProbeFs(EventLoop* loop, BlockDevice* device, bool per_page)
      : CowFs(loop, device, /*cache_pages=*/64), per_page_(per_page) {}

  using FileSystem::NextAllocatable;
  using FileSystem::Pin;
  using FileSystem::StoredChecksum;

 protected:
  Status PopulatePages(InodeNo ino, uint64_t npages, double break_prob, Rng* rng) override {
    return per_page_ ? PopulateReference::PerPage(this, ino, npages, break_prob, rng)
                     : CowFs::PopulatePages(ino, npages, break_prob, rng);
  }

 private:
  const bool per_page_;
};

// One stack per population; every step is applied to both.
struct Stack {
  Stack(uint64_t capacity, bool per_page)
      : rig(capacity, Micros(100)), fs(&rig.loop, &rig.device, per_page) {}
  SimRig rig;
  PopulateProbeFs fs;
  Rng rng{11};
};

class PopulateTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  PopulateTest()
      : capacity_(GetParam()),
        extent_(std::make_unique<Stack>(capacity_, /*per_page=*/false)),
        reference_(std::make_unique<Stack>(capacity_, /*per_page=*/true)) {}

  // Takes `block` with a one-page file placed there, when it is allocatable.
  void TakeBlock(BlockNo block) {
    for (Stack* s : {extent_.get(), reference_.get()}) {
      if (s->fs.NextAllocatable(block) != std::optional<BlockNo>(block)) {
        return;
      }
      PopulateReference::SetCursor(&s->fs, block);
      ASSERT_TRUE(s->fs.PopulateFile(StrFormat("/taken%llu", static_cast<unsigned long long>(block)), kPageSize).ok());
    }
  }
  void PinBlock(BlockNo block) {
    for (Stack* s : {extent_.get(), reference_.get()}) {
      if (!s->fs.BlockInUse(block)) {
        s->fs.Pin(block);
      }
    }
  }

  // Populates the same file on both stacks and compares them.
  void Populate(uint64_t bytes, double break_prob) {
    std::string path = StrFormat("/f%d", files_++);
    Result<InodeNo> got =
        break_prob < 0 ? extent_->fs.PopulateFile(path, bytes)
                       : extent_->fs.PopulateFileAged(path, bytes, break_prob, extent_->rng);
    Result<InodeNo> want = break_prob < 0 ? reference_->fs.PopulateFile(path, bytes)
                                          : reference_->fs.PopulateFileAged(
                                                path, bytes, break_prob, reference_->rng);
    ASSERT_EQ(got.ok(), want.ok()) << path;
    if (!got.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
    } else {
      ASSERT_EQ(*got, *want);
    }
    ExpectSame(path.c_str());
  }

  // Every block's owner, refcount, token and checksum, the cursor, the next
  // random draw and every NextAllocatable answer agree, and fsck finds the
  // extent fill's store and index consistent.
  void ExpectSame(const char* step) {
    PopulateProbeFs& a = extent_->fs;
    PopulateProbeFs& b = reference_->fs;
    ASSERT_EQ(a.allocated_blocks(), b.allocated_blocks()) << step;
    for (BlockNo block = 0; block < capacity_; ++block) {
      ASSERT_EQ(a.BlockInUse(block), b.BlockInUse(block)) << step << " block " << block;
      ASSERT_EQ(a.NextAllocatable(block), b.NextAllocatable(block))
          << step << " from " << block;
      if (!a.BlockInUse(block)) {
        continue;
      }
      Result<FileSystem::BlockOwner> owner_a = a.Rmap(block);
      Result<FileSystem::BlockOwner> owner_b = b.Rmap(block);
      ASSERT_TRUE(owner_a.ok() && owner_b.ok()) << step << " block " << block;
      ASSERT_EQ(owner_a->ino, owner_b->ino) << step << " block " << block;
      ASSERT_EQ(owner_a->idx, owner_b->idx) << step << " block " << block;
      ASSERT_EQ(a.BlockRefcount(block), b.BlockRefcount(block)) << step << " block " << block;
      ASSERT_EQ(a.DiskToken(block), b.DiskToken(block)) << step << " block " << block;
      ASSERT_EQ(a.StoredChecksum(block), b.StoredChecksum(block))
          << step << " block " << block;
      ASSERT_TRUE(a.BlockChecksumOk(block)) << step << " block " << block;
    }
    ASSERT_EQ(a.NextAllocatable(capacity_), std::nullopt);
    ASSERT_EQ(a.alloc_cursor(), b.alloc_cursor()) << step;
    Rng rng_a = extent_->rng;
    Rng rng_b = reference_->rng;
    ASSERT_EQ(rng_a.Next(), rng_b.Next()) << step;
    FsckReport fsck = a.CheckConsistency();
    ASSERT_TRUE(fsck.clean()) << step << ": " << fsck.structural_errors << " structural, "
                              << fsck.checksum_errors << " checksum errors";
    ASSERT_FALSE(fsck.first_bad_index_word.has_value()) << step;
  }

  const uint64_t capacity_;
  std::unique_ptr<Stack> extent_;
  std::unique_ptr<Stack> reference_;
  int files_ = 0;
};

// Blocks just before and at every word edge are taken or pinned, so runs
// end and resume there; then files of varied sizes and break probabilities
// (negative: plain population) fill the device until it is full.
TEST_P(PopulateTest, ExtentFillMatchesPageByPageLoop) {
  Rng choose(capacity_);
  for (BlockNo edge = 64; edge < capacity_; edge += 64) {
    switch (choose.Uniform(5)) {
      case 0:
        TakeBlock(edge - 1);
        break;
      case 1:
        TakeBlock(edge);
        break;
      case 2:
        PinBlock(edge - 1);
        PinBlock(edge);
        break;
      default:
        break;
    }
  }
  ExpectSame("edges");
  const double break_probs[] = {-1, 0, 0.02, 0.3, 0.9, 1.0};
  while (extent_->fs.allocated_blocks() < capacity_ && files_ < 400) {
    uint64_t pages = 1 + choose.Uniform(choose.Chance(0.2) ? 400 : 40);
    uint64_t bytes = pages * kPageSize - choose.Uniform(kPageSize);
    Populate(bytes, break_probs[choose.Uniform(6)]);
    if (HasFatalFailure()) {
      return;
    }
  }
  // Once full, a population fails the same way on both.
  Populate(3 * kPageSize, -1);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PopulateTest,
                         ::testing::Values(64, 200, 1000, 4096 + 37));

}  // namespace
}  // namespace duet
