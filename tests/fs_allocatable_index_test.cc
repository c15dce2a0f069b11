// Differential tests for the block store's allocatable index: after every
// step of a random sequence of MarkInUse / MarkFree / Pin / PinAllInUse /
// checkpoint + crash + mount, NextAllocatable(from) must equal a linear scan
// of a reference model, and fsck must find the index consistent. TakeRun
// must take the model's first fit from its hint, wrapping once. logfs's
// scattered-write pick is compared with the bit-by-bit loop it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/block/durable_image.h"
#include "src/fs/file_system.h"
#include "src/fs/meta_codec.h"
#include "src/logfs/logfs.h"
#include "src/util/format.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {

// Plants a stale allocatable index bit.
class AllocatableIndexTestPeer {
 public:
  static void FlipIndexBit(FileSystem* fs, uint64_t word) {
    if (fs->allocatable_words_.Test(word)) {
      fs->allocatable_words_.Clear(word);
    } else {
      fs->allocatable_words_.Set(word);
    }
  }
};

namespace {

// A FileSystem with no placement of its own that exposes the block store's
// index operations. Its checkpoint payload is the in-use block list; mount
// marks those blocks in use and pins them, as cowfs's mount does.
class IndexProbeFs : public FileSystem {
 public:
  IndexProbeFs(EventLoop* loop, BlockDevice* device)
      : FileSystem(loop, device, /*cache_pages=*/16, WritebackParams(), "probe.ckpt") {}

  using FileSystem::MarkFree;
  using FileSystem::MarkInUse;
  using FileSystem::NextAllocatable;
  using FileSystem::Pin;
  using FileSystem::PinAllInUse;
  using FileSystem::TakeRun;
  bool Pinned(BlockNo block) const { return pinned().Test(block); }

 protected:
  Result<BlockNo> AllocateForWrite(InodeNo, PageIdx, BlockNo) override {
    return Status(StatusCode::kNoSpace, "the probe places no pages");
  }
  void FreeFileBlocks(InodeNo) override {}
  void SerializeFsState(ByteWriter* w) const override {
    w->U64(allocated_blocks());
    for (std::optional<BlockNo> b = NextBlockInUse(0); b.has_value();
         b = NextBlockInUse(*b + 1)) {
      w->U64(*b);
    }
  }
  Status RestoreFsState(ByteReader* r, MountReport*, std::vector<BlockNo>*) override {
    uint64_t n = r->U64();
    for (uint64_t i = 0; i < n && r->ok(); ++i) {
      MarkInUse(r->U64());
    }
    PinAllInUse();
    return r->ok() ? Status::Ok() : Status(StatusCode::kCorruption, "truncated");
  }
  void CheckFsState(FsckReport*) const override {}
};

// What the index must answer: per-block state and a linear scan over it.
struct Model {
  std::vector<bool> in_use;
  std::vector<bool> pinned;

  explicit Model(uint64_t capacity) : in_use(capacity), pinned(capacity) {}

  bool Allocatable(BlockNo b) const { return !in_use[b] && !pinned[b]; }
  std::optional<BlockNo> NextAllocatable(BlockNo from) const {
    for (BlockNo b = from; b < in_use.size(); ++b) {
      if (Allocatable(b)) {
        return b;
      }
    }
    return std::nullopt;
  }
  // NextAllocatable(from) for every from in [0, capacity], by one backward
  // scan.
  std::vector<std::optional<BlockNo>> NextAllocatableTable() const {
    std::vector<std::optional<BlockNo>> table(in_use.size() + 1);
    for (BlockNo b = in_use.size(); b-- > 0;) {
      table[b] = Allocatable(b) ? std::optional<BlockNo>(b) : table[b + 1];
    }
    return table;
  }
  // TakeRun's answer as (start, length): the first allocatable block from
  // `hint` to the end, else from 0 up to `hint` (0 for a hint past the end),
  // with the allocatable blocks after it, at most `max_len` and none past
  // the end.
  std::optional<std::pair<BlockNo, uint64_t>> FirstFit(BlockNo hint, uint64_t max_len) const {
    const uint64_t capacity = in_use.size();
    hint = hint < capacity ? hint : 0;
    for (uint64_t i = 0; i < capacity; ++i) {
      const BlockNo b = (hint + i) % capacity;
      if (Allocatable(b)) {
        uint64_t length = 1;
        while (length < max_len && b + length < capacity && Allocatable(b + length)) {
          ++length;
        }
        return std::make_pair(b, length);
      }
    }
    return std::nullopt;
  }
};

// `from` values to probe: 0, both sides of every 64-block word edge and
// every 4096-block index-word edge, capacity - 1 and capacity, and a few
// random blocks.
std::vector<BlockNo> ProbePoints(uint64_t capacity, Rng& rng) {
  std::vector<BlockNo> points = {0, capacity - 1, capacity};
  for (BlockNo edge = 64; edge <= capacity; edge += 64) {
    points.push_back(edge - 1);
    points.push_back(edge);
  }
  for (BlockNo edge = 4096; edge < capacity; edge += 4096) {
    points.push_back(edge + 1);
  }
  for (int i = 0; i < 8; ++i) {
    points.push_back(rng.Uniform(capacity + 1));
  }
  return points;
}

class AllocatableIndexTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  AllocatableIndexTest() : capacity_(GetParam()), model_(capacity_), image_(capacity_) {
    Build();
    fs_->AttachDurableImage(&image_);
  }

  void Build() {
    rig_ = std::make_unique<SimRig>(capacity_, Micros(100));
    fs_ = std::make_unique<IndexProbeFs>(&rig_->loop, &rig_->device);
  }

  // Every probe point answers like the model's linear scan, every block's
  // state matches the model, and fsck finds the index consistent.
  void ExpectMatches(const char* step) {
    const std::vector<std::optional<BlockNo>> want = model_.NextAllocatableTable();
    for (BlockNo from : ProbePoints(capacity_, rng_)) {
      ASSERT_EQ(fs_->NextAllocatable(from), want[from])
          << step << " from " << from << " capacity " << capacity_;
    }
    for (BlockNo b = 0; b < capacity_; ++b) {
      ASSERT_EQ(fs_->BlockInUse(b), model_.in_use[b]) << step << " block " << b;
      ASSERT_EQ(fs_->Pinned(b), model_.pinned[b]) << step << " block " << b;
    }
    FsckReport fsck = fs_->CheckConsistency();
    ASSERT_EQ(fsck.structural_errors, 0u) << step;
    ASSERT_FALSE(fsck.first_bad_index_word.has_value()) << step;
  }

  void Use(BlockNo b) {
    fs_->MarkInUse(b);
    model_.in_use[b] = true;
  }
  void Free(BlockNo b) {
    fs_->MarkFree(b);
    model_.in_use[b] = false;
  }
  void Pin(BlockNo b) {
    fs_->Pin(b);
    model_.pinned[b] = true;
  }
  void PinAll() {
    fs_->PinAllInUse();
    model_.pinned = model_.in_use;
  }

  // Allocates like cowfs: up to `n` blocks next-fit from `from`, each the
  // index's answer, checked against the scan before it is taken.
  void AllocateRun(BlockNo from, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      std::optional<BlockNo> b = fs_->NextAllocatable(from);
      ASSERT_EQ(b, model_.NextAllocatable(from)) << "allocate from " << from;
      if (!b.has_value()) {
        return;
      }
      Use(*b);
      from = *b + 1;
    }
  }

  void CheckpointCrashMount() {
    bool committed = false;
    fs_->Checkpoint([&] { committed = true; });
    rig_->loop.Run();
    ASSERT_TRUE(committed);
    PinAll();  // the model's view of the commit
    rig_->device.CrashFreeze();
    fs_.reset();
    rig_.reset();
    image_.Thaw();
    Build();
    fs_->AttachDurableImage(&image_);
    bool mounted = false;
    fs_->Mount([&](const MountReport& r) {
      ASSERT_TRUE(r.status.ok()) << r.status.message();
      mounted = true;
    });
    rig_->loop.Run();
    ASSERT_TRUE(mounted);
    // Mount restores the committed in-use set and pins exactly it.
    model_.pinned = model_.in_use;
  }

  const uint64_t capacity_;
  Model model_;
  Rng rng_{GetParam() * 31 + 7};
  DurableImage image_;
  std::unique_ptr<SimRig> rig_;
  std::unique_ptr<IndexProbeFs> fs_;
};

TEST_P(AllocatableIndexTest, FreshDeviceIsAllAllocatable) {
  ExpectMatches("fresh");
  EXPECT_EQ(fs_->NextAllocatable(0), std::optional<BlockNo>(0));
  EXPECT_EQ(fs_->NextAllocatable(capacity_ - 1), std::optional<BlockNo>(capacity_ - 1));
  EXPECT_EQ(fs_->NextAllocatable(capacity_), std::nullopt);
}

// A full device with a single allocatable block at each word and index-word
// edge: the query must find it from 0 and from just before it, and nothing
// past it.
TEST_P(AllocatableIndexTest, LoneFreeBlockAtEveryEdge) {
  AllocateRun(0, capacity_);
  ExpectMatches("full");
  std::vector<BlockNo> lone = {0, capacity_ - 1};
  for (BlockNo edge : {BlockNo{63}, BlockNo{64}, BlockNo{4095}, BlockNo{4096},
                       BlockNo{8191}, BlockNo{8192}, BlockNo{12288}}) {
    if (edge < capacity_) {
      lone.push_back(edge);
    }
  }
  for (BlockNo b : lone) {
    Free(b);
    PinAll();  // drops the pin the last round's commit left on `b`
    EXPECT_EQ(fs_->NextAllocatable(0), std::optional<BlockNo>(b));
    EXPECT_EQ(fs_->NextAllocatable(b), std::optional<BlockNo>(b));
    EXPECT_EQ(fs_->NextAllocatable(b + 1), std::nullopt);
    ExpectMatches("lone free block");
    // A pin takes it away again; the next commit's pins give it back.
    Pin(b);
    EXPECT_EQ(fs_->NextAllocatable(0), std::nullopt);
    ExpectMatches("lone block pinned");
    PinAll();
    EXPECT_EQ(fs_->NextAllocatable(0), std::optional<BlockNo>(b));
    Use(b);
    ExpectMatches("full again");
  }
}

TEST_P(AllocatableIndexTest, RandomSequencesMatchLinearScan) {
  constexpr int kSteps = 300;
  for (int step = 0; step < kSteps; ++step) {
    const uint64_t op = rng_.Uniform(100);
    const BlockNo at = rng_.Uniform(capacity_);
    const uint64_t len = 1 + rng_.Uniform(std::min<uint64_t>(capacity_, 256));
    const char* name = "";
    if (op < 35) {
      name = "allocate run";
      AllocateRun(at, len);
    } else if (op < 65) {
      name = "free run";
      for (BlockNo b = at; b < std::min(capacity_, at + len); ++b) {
        if (model_.in_use[b] && rng_.Chance(0.8)) {
          Free(b);
        }
      }
    } else if (op < 85) {
      name = "pin run";
      for (BlockNo b = at; b < std::min(capacity_, at + len); ++b) {
        if (rng_.Chance(0.5)) {
          Pin(b);
        }
      }
    } else if (op < 96) {
      name = "pin all in use";
      PinAll();
    } else {
      name = "checkpoint, crash and mount";
      CheckpointCrashMount();
    }
    ExpectMatches(name);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// TakeRun on a device kept nearly full, with both sides of word edges
// pinned: most hints sit near the device's end, so most searches wrap, and
// some lie past it. Room is made only by freeing blocks no run took. Every
// run must be the model's first fit, allocatable when returned and
// disjoint from every earlier run.
TEST_P(AllocatableIndexTest, TakeRunIsFirstFitWithOneWrap) {
  for (BlockNo edge = 64; edge < capacity_; edge += 64) {
    if (rng_.Chance(0.5)) {
      Pin(edge - 1);
      Pin(edge);
    }
  }
  std::vector<BlockNo> filler;  // blocks in use that no run took
  for (BlockNo b = 0; b < capacity_; ++b) {
    if (model_.Allocatable(b) && rng_.Chance(0.9)) {
      Use(b);
      filler.push_back(b);
    }
  }
  auto free_filler = [&] {
    const size_t i = rng_.Uniform(filler.size());
    Free(filler[i]);
    filler[i] = filler.back();
    filler.pop_back();
  };
  std::vector<bool> taken(capacity_);
  uint64_t runs = 0;
  uint64_t wrapped = 0;
  for (int step = 0; step < 400; ++step) {
    const uint64_t where = rng_.Uniform(10);
    const BlockNo near_end = capacity_ - 1 - rng_.Uniform(std::min<uint64_t>(capacity_, 100));
    const BlockNo hint = where < 7   ? near_end
                         : where < 9 ? rng_.Uniform(capacity_)
                                     : capacity_ + rng_.Uniform(3);
    const uint64_t max_len = 1 + rng_.Uniform(rng_.Chance(0.5) ? 4 : 150);
    const auto want = model_.FirstFit(hint, max_len);
    const auto got = fs_->TakeRun(hint, max_len);
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step << " hint " << hint;
    if (got.has_value()) {
      ASSERT_EQ(got->start, want->first) << "step " << step << " hint " << hint;
      ASSERT_EQ(got->length, want->second) << "step " << step << " hint " << hint;
      for (BlockNo b = got->start; b < got->start + got->length; ++b) {
        ASSERT_TRUE(model_.Allocatable(b)) << "step " << step << " block " << b;
        ASSERT_FALSE(taken[b]) << "step " << step << " block " << b;
        taken[b] = true;
        model_.in_use[b] = true;
      }
      ++runs;
      wrapped += hint < capacity_ && got->start < hint;
    }
    if (!got.has_value() && filler.empty()) {
      break;  // full, and only runs hold blocks
    }
    if (!got.has_value() || rng_.Chance(0.2)) {
      for (int i = 0; i < 3 && !filler.empty(); ++i) {
        free_filler();
      }
    }
    if (rng_.Chance(0.05)) {
      PinAll();
    }
    ExpectMatches("take run");
    if (HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(runs, 0u);
  if (capacity_ > 64) {
    EXPECT_GT(wrapped, 0u);
  }
}

TEST_P(AllocatableIndexTest, FsckReportsAStaleIndexBit) {
  AllocateRun(0, capacity_ / 2);
  ExpectMatches("half full");
  const uint64_t word = (capacity_ - 1) / 64;
  AllocatableIndexTestPeer::FlipIndexBit(fs_.get(), word);
  FsckReport fsck = fs_->CheckConsistency();
  EXPECT_EQ(fsck.structural_errors, 1u);
  EXPECT_EQ(fsck.first_bad_index_word, std::optional<uint64_t>(word));
  EXPECT_EQ(fsck.first_bad_block, kInvalidBlock);
}

// Device sizes around the 64-block word and the 4096-block index word.
INSTANTIATE_TEST_SUITE_P(Capacities, AllocatableIndexTest,
                         ::testing::Values(1, 63, 64, 65, 4095, 4096, 4097,
                                           3 * 4096 + 17));

// logfs's scattered-write pick before the index: the first block, in
// segment order, that is below its segment's write frontier and neither in
// use nor pinned.
class LogFsProbe : public LogFs {
 public:
  using LogFs::LogFs;
  bool Pinned(BlockNo block) const { return pinned().Test(block); }

  std::optional<BlockNo> BitByBitScatteredPick() const {
    for (SegmentNo s = 0; s < segment_count(); ++s) {
      BlockNo start = s * segment_blocks();
      BlockNo end = std::min<BlockNo>(start + segment(s).written, capacity_blocks());
      for (BlockNo b = start; b < end; ++b) {
        if (!BlockInUse(b) && !Pinned(b)) {
          return b;
        }
      }
    }
    return std::nullopt;
  }
};

// 90 segments of 48 blocks: segment edges fall inside 64-block words, and
// the device crosses one index-word edge.
class LogFsScatteredPickTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kSegment = 48;
  static constexpr uint64_t kCapacity = 90 * kSegment;

  LogFsScatteredPickTest() { Build(); }

  void Build() {
    rig_ = std::make_unique<SimRig>(kCapacity, Micros(100));
    fs_ = std::make_unique<LogFsProbe>(&rig_->loop, &rig_->device, /*cache_pages=*/64,
                                       kSegment);
    fs_->AttachDurableImage(&image_);
  }

  void Checkpoint() {
    bool committed = false;
    fs_->Checkpoint([&] { committed = true; });
    while (!committed) {
      rig_->loop.RunUntil(rig_->loop.now() + Millis(100));
    }
  }

  void CrashAndMount() {
    rig_->device.CrashFreeze();
    fs_.reset();
    rig_.reset();
    image_.Thaw();
    Build();
    bool mounted = false;
    fs_->Mount([&](const MountReport& r) {
      ASSERT_TRUE(r.status.ok()) << r.status.message();
      mounted = true;
    });
    rig_->loop.Run();
    ASSERT_TRUE(mounted);
  }

  DurableImage image_{kCapacity};
  std::unique_ptr<SimRig> rig_;
  std::unique_ptr<LogFsProbe> fs_;
};

class LogFsScatteredPickSeedTest : public LogFsScatteredPickTest,
                                   public ::testing::WithParamInterface<uint64_t> {};

// Random one-page overwrites of a log that fills, with a commit every 97
// writes and two crashes, each mounted from a fresh commit.
TEST_P(LogFsScatteredPickSeedTest, MatchesBitByBitLoop) {
  Rng rng(GetParam());
  std::vector<InodeNo> files;
  for (int i = 0; i < 25; ++i) {
    Result<InodeNo> ino = fs_->PopulateFile(StrFormat("/f%d", i), 128 * kPageSize);
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    files.push_back(*ino);
  }
  fs_->SnapshotToDurable();
  Checkpoint();
  uint64_t compared = 0;
  for (int step = 0; step < 2500; ++step) {
    if (step % 97 == 96) {
      Checkpoint();
    }
    if (step % 701 == 700) {
      Checkpoint();
      CrashAndMount();
      if (HasFatalFailure()) {
        return;
      }
    }
    const InodeNo ino = files[rng.Uniform(files.size())];
    const PageIdx idx = rng.Uniform(128);
    const uint64_t scattered_before = fs_->scattered_writes();
    const std::optional<BlockNo> want = fs_->BitByBitScatteredPick();
    Status status;
    fs_->Write(ino, idx * kPageSize, kPageSize, IoClass::kBestEffort,
               [&status](const FsIoResult& r) { status = r.status; });
    if (fs_->scattered_writes() != scattered_before) {
      ASSERT_TRUE(want.has_value()) << "step " << step;
      ASSERT_EQ(*fs_->Bmap(ino, idx), *want) << "step " << step;
      ++compared;
    }
    rig_->loop.RunUntil(rig_->loop.now() + Millis(20));
    if (!status.ok()) {
      // Only a full log with no allocatable slot refuses a write.
      ASSERT_FALSE(want.has_value()) << "step " << step << ": " << status.message();
    }
  }
  EXPECT_GT(compared, 500u);
  EXPECT_EQ(fs_->CheckConsistency().structural_errors, 0u);
}

// A crash that loses the writes after a sync leaves a segment written only up
// to the sync: its lost slots are free and unpinned but past the segment's
// write frontier, and the scattered pick must skip them for a higher one.
TEST_F(LogFsScatteredPickTest, SkipsSlotsPastTheWriteFrontier) {
  // 85 full segments of cold data, then commit.
  Result<InodeNo> cold = fs_->PopulateFile("/cold", 85 * kSegment * kPageSize);
  ASSERT_TRUE(cold.ok());
  fs_->SnapshotToDurable();
  Checkpoint();
  // 60 overwrites fill segment 85 and 12 slots of segment 86; a sync makes
  // them durable. The next 10 land in segment 86 too and are lost.
  auto overwrite = [&](InodeNo ino, PageIdx first, PageIdx last) {
    for (PageIdx p = first; p < last; ++p) {
      fs_->Write(ino, p * kPageSize, kPageSize, IoClass::kBestEffort, nullptr);
      rig_->loop.RunUntil(rig_->loop.now() + Millis(20));
    }
  };
  overwrite(*cold, 0, 60);
  bool synced = false;
  fs_->Sync([&] { synced = true; });
  while (!synced) {
    rig_->loop.RunUntil(rig_->loop.now() + Millis(100));
  }
  overwrite(*cold, 60, 70);
  CrashAndMount();
  ASSERT_EQ(fs_->segment(86).written, 12u);
  const BlockNo lost = 86 * kSegment + 12;
  ASSERT_FALSE(fs_->BlockInUse(lost));
  ASSERT_FALSE(fs_->Pinned(lost));
  // Without an image no new block is pinned, so invalidated blocks of a file
  // written after the mount become allocatable at once. Fill segments 87-88
  // with it, then overwrite 24 of its pages in each, which fills segment 89.
  fs_->AttachDurableImage(nullptr);
  Result<InodeNo> hot = fs_->PopulateFile("/hot", 2 * kSegment * kPageSize);
  ASSERT_TRUE(hot.ok());
  overwrite(*hot, 0, 24);
  overwrite(*hot, kSegment, kSegment + 24);
  // Lowest allocatable block: the lost slot. The pick skips its segment.
  const BlockNo want = 87 * kSegment;
  ASSERT_EQ(fs_->BitByBitScatteredPick(), std::optional<BlockNo>(want));
  const uint64_t scattered_before = fs_->scattered_writes();
  overwrite(*cold, 100, 101);
  EXPECT_EQ(fs_->scattered_writes(), scattered_before + 1);
  EXPECT_EQ(*fs_->Bmap(*cold, 100), want);
  EXPECT_EQ(fs_->CheckConsistency().structural_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogFsScatteredPickSeedTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace duet
