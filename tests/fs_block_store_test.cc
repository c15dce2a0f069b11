// Tests for the block store FileSystem keeps for both file systems: the
// checkpoint commit's timing, the mount's duration, the one verify-on-read
// check behind every read path, and the stored-checksum rule (a block's
// stored checksum is its token's CRC32C unless the two have diverged),
// typed over CowFs and LogFs.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "src/block/durable_image.h"
#include "src/cowfs/cowfs.h"
#include "src/fault/fault_injector.h"
#include "src/fs/meta_codec.h"
#include "src/logfs/logfs.h"
#include "src/obs/obs.h"
#include "src/util/crc32c.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

constexpr uint64_t kCapacity = 8192;
// Enough pages that the checkpoint payload's size shows in its latency.
constexpr uint64_t kPages = 64;

uint32_t TokenCrc(uint64_t token) { return Crc32c(&token, sizeof(token)); }

// A file system with its stored checksums and the count of diverged ones
// exposed.
template <typename Fs>
class ChecksumPeek : public Fs {
 public:
  using Fs::Fs;
  using FileSystem::StoredChecksum;
  size_t diverged_checksums() const { return this->csum_diverged_.size(); }
};

template <typename Fs>
std::unique_ptr<ChecksumPeek<Fs>> MakeFs(SimRig* rig) {
  if constexpr (std::is_same_v<Fs, LogFs>) {
    return std::make_unique<ChecksumPeek<LogFs>>(&rig->loop, &rig->device, /*cache_pages=*/64,
                                                 /*segment_blocks=*/64);
  } else {
    return std::make_unique<ChecksumPeek<CowFs>>(&rig->loop, &rig->device, /*cache_pages=*/64);
  }
}

template <typename Fs>
class BlockStoreTest : public ::testing::Test {
 protected:
  BlockStoreTest() {
    BuildStack();
    ino_ = *fs_->PopulateFile("/f", kPages * kPageSize);
  }

  // A fresh stack whose context traces into `ring_`.
  void BuildStack() {
    rig_ = std::make_unique<SimRig>(kCapacity, Micros(100));
    rig_->obs.trace.AddSink(&ring_);
    fs_ = MakeFs<Fs>(rig_.get());
  }

  // The last traced event of `kind`, if any.
  std::optional<obs::TraceEvent> Last(obs::TraceKind kind) const {
    std::optional<obs::TraceEvent> found;
    ring_.ForEach([&](const obs::TraceEvent& e) {
      if (e.kind == kind) {
        found = e;
      }
    });
    return found;
  }

  // Seeds the durable image and commits the first checkpoint.
  void CheckpointToImage() {
    fs_->AttachDurableImage(&image_);
    fs_->SnapshotToDurable();
    bool committed = false;
    fs_->Checkpoint([&] { committed = true; });
    rig_->loop.Run();
    ASSERT_TRUE(committed);
  }

  // Pulls the plug, then mounts a freshly built stack over the image.
  MountReport CrashAndMount() {
    rig_->device.CrashFreeze();
    fs_.reset();
    rig_.reset();
    image_.Thaw();
    ring_.Clear();
    BuildStack();
    fs_->AttachDurableImage(&image_);
    MountReport report;
    bool mounted = false;
    fs_->Mount([&](const MountReport& r) {
      report = r;
      mounted = true;
    });
    rig_->loop.Run();
    EXPECT_TRUE(mounted);
    EXPECT_TRUE(report.status.ok()) << report.status.message();
    return report;
  }

  // Rots the on-disk copy of page 5 through an attached fault injector.
  BlockNo RotOnePage() {
    BlockNo victim = *fs_->Bmap(ino_, 5);
    injector_ = std::make_unique<FaultInjector>(
        &rig_->loop,
        FaultPlan::FromEvents({}, {{.at = Millis(1), .kind = kFaultBitRot, .block = victim}}));
    fs_->AttachFaultInjector(injector_.get());
    injector_->Start();
    rig_->loop.RunUntil(Millis(2));
    EXPECT_FALSE(fs_->BlockChecksumOk(victim));
    return victim;
  }

  // After `reads` reads of the rotten block: each read counted it once, the
  // injector saw its fault detected, and fsck counts it.
  void ExpectDetected(BlockNo victim, uint64_t reads) {
    EXPECT_EQ(fs_->checksum_errors_detected(), reads);
    EXPECT_EQ(rig_->obs.metrics.CounterValue("fault.detected"), 1u);
    FsckReport fsck = fs_->CheckConsistency();
    EXPECT_EQ(fsck.structural_errors, 0u);
    EXPECT_EQ(fsck.checksum_errors, 1u);
    EXPECT_EQ(fsck.first_bad_block, victim);
  }

  // Declared before the stack, which traces into it.
  obs::TraceRing ring_{1 << 16};
  DurableImage image_{kCapacity};
  std::unique_ptr<SimRig> rig_;
  std::unique_ptr<ChecksumPeek<Fs>> fs_;
  std::unique_ptr<FaultInjector> injector_;
  InodeNo ino_ = kInvalidInode;
};

using FileSystems = ::testing::Types<CowFs, LogFs>;
TYPED_TEST_SUITE(BlockStoreTest, FileSystems);

// The commit lands MetaIoLatency(payload bytes) after the sync's device
// flush, and only then is `done` called.
TYPED_TEST(BlockStoreTest, CheckpointCommitsMetaIoLatencyAfterFlush) {
  this->CheckpointToImage();
  this->fs_->Write(this->ino_, 0, 4 * kPageSize, IoClass::kBestEffort, nullptr);
  this->ring_.Clear();
  SimTime done_at = 0;
  this->fs_->Checkpoint([&] { done_at = this->rig_->loop.now(); });
  this->rig_->loop.Run();
  std::optional<obs::TraceEvent> flush = this->Last(obs::TraceKind::kDeviceFlush);
  std::optional<obs::TraceEvent> commit = this->Last(obs::TraceKind::kCheckpointCommit);
  ASSERT_TRUE(flush.has_value());
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->a, 2u);  // generation
  EXPECT_GT(MetaIoLatency(commit->b), MetaIoLatency(0));  // b: payload bytes
  EXPECT_EQ(commit->at - flush->at, MetaIoLatency(commit->b));
  EXPECT_EQ(done_at, commit->at);
}

// With nothing to read back, a mount takes exactly the checkpoint read.
TYPED_TEST(BlockStoreTest, MountWithoutReadBackTakesMetaIoLatency) {
  this->CheckpointToImage();
  MountReport report = this->CrashAndMount();
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.blocks_restored, kPages);
  EXPECT_EQ(report.blocks_replayed, 0u);
  EXPECT_GT(report.meta_bytes, 0u);
  EXPECT_EQ(report.duration, MetaIoLatency(report.meta_bytes));
  EXPECT_TRUE(this->fs_->CheckConsistency().clean());
}

// Pages synced after the checkpoint: cowfs rolls back to the checkpoint and
// reads nothing back; logfs replays them and reads the tail back, so its
// mount takes longer than the checkpoint read.
TYPED_TEST(BlockStoreTest, MountReadsBackOnlyAReplayedTail) {
  this->CheckpointToImage();
  this->fs_->Write(this->ino_, 0, 4 * kPageSize, IoClass::kBestEffort, nullptr);
  bool synced = false;
  this->fs_->Sync([&] { synced = true; });
  this->rig_->loop.Run();
  ASSERT_TRUE(synced);
  MountReport report = this->CrashAndMount();
  if constexpr (std::is_same_v<TypeParam, LogFs>) {
    EXPECT_EQ(report.blocks_replayed, 4u);
    EXPECT_GT(report.duration, MetaIoLatency(report.meta_bytes));
  } else {
    EXPECT_EQ(report.blocks_replayed, 0u);
    EXPECT_EQ(report.duration, MetaIoLatency(report.meta_bytes));
  }
  EXPECT_TRUE(this->fs_->CheckConsistency().clean());
}

TYPED_TEST(BlockStoreTest, CorruptBlockCaughtByRead) {
  BlockNo victim = this->RotOnePage();
  for (int read = 0; read < 2; ++read) {
    FsIoResult result;
    this->fs_->Read(this->ino_, 0, kPages * kPageSize, IoClass::kBestEffort,
                    [&](const FsIoResult& r) { result = r; });
    this->rig_->loop.Run();
    EXPECT_EQ(result.status.code(), StatusCode::kCorruption);
    EXPECT_EQ(result.pages_failed, 1u);
  }
  this->ExpectDetected(victim, 2);
}

TYPED_TEST(BlockStoreTest, CorruptBlockCaughtByReadBlocks) {
  BlockNo victim = this->RotOnePage();
  for (int read = 0; read < 2; ++read) {
    RawReadResult result;
    this->fs_->ReadBlocks({victim - 1, victim, victim + 1}, IoClass::kBestEffort,
                          [&](const RawReadResult& r) { result = r; });
    this->rig_->loop.Run();
    EXPECT_EQ(result.checksum_errors, 1u);
    EXPECT_EQ(result.bad_blocks, std::vector<BlockNo>{victim});
  }
  this->ExpectDetected(victim, 2);
}

// The file system's own read path: cowfs's raw block reads (the scrubber's),
// logfs's segment cleaner (the GC's), which leaves the bad block in place.
TYPED_TEST(BlockStoreTest, CorruptBlockCaughtByFsReadPath) {
  BlockNo victim = this->RotOnePage();
  for (int read = 0; read < 2; ++read) {
    uint64_t checksum_errors = 0;
    if constexpr (std::is_same_v<TypeParam, LogFs>) {
      this->fs_->CleanSegment(this->fs_->SegmentOf(victim), IoClass::kIdle,
                              [&](const CleanResult& r) { checksum_errors = r.checksum_errors; });
    } else {
      this->fs_->ReadRawBlocks(victim - 1, 3, IoClass::kIdle, [](BlockNo, uint32_t) {},
                               [&](const RawReadResult& r) {
                                 checksum_errors = r.checksum_errors;
                               });
    }
    this->rig_->loop.Run();
    EXPECT_EQ(checksum_errors, 1u);
  }
  this->ExpectDetected(victim, 2);
}

// A flip keeps the checksum from before it; a second flip restores the
// content, which then matches that checksum again and reads clean.
TYPED_TEST(BlockStoreTest, SecondFlipReadsClean) {
  auto& fs = *this->fs_;
  BlockNo victim = *fs.Bmap(this->ino_, 5);
  const uint64_t token = fs.DiskToken(victim);
  EXPECT_EQ(fs.diverged_checksums(), 0u);
  EXPECT_EQ(fs.StoredChecksum(victim), TokenCrc(token));
  fs.CorruptBlock(victim);
  EXPECT_FALSE(fs.BlockChecksumOk(victim));
  EXPECT_EQ(fs.diverged_checksums(), 1u);
  EXPECT_EQ(fs.StoredChecksum(victim), TokenCrc(token));
  EXPECT_NE(TokenCrc(fs.DiskToken(victim)), TokenCrc(token));
  fs.CorruptBlock(victim);
  EXPECT_EQ(fs.DiskToken(victim), token);
  EXPECT_TRUE(fs.BlockChecksumOk(victim));
  EXPECT_EQ(fs.diverged_checksums(), 0u);
  FsIoResult result;
  fs.Read(this->ino_, 0, kPages * kPageSize, IoClass::kBestEffort,
          [&](const FsIoResult& r) { result = r; });
  this->rig_->loop.Run();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.pages_from_disk, kPages);
  EXPECT_EQ(fs.checksum_errors_detected(), 0u);
  EXPECT_TRUE(fs.CheckConsistency().clean());
}

// A page written after its new block was corrupted: the writeback stores
// the token with its own checksum, and the block's diverged entry goes.
TYPED_TEST(BlockStoreTest, OverwriteAfterCorruptionClearsTheEntry) {
  auto& fs = *this->fs_;
  fs.Write(this->ino_, 5 * kPageSize, kPageSize, IoClass::kBestEffort, nullptr);
  BlockNo fresh = *fs.Bmap(this->ino_, 5);
  ASSERT_TRUE(fs.cache().Peek(this->ino_, 5)->dirty);
  fs.CorruptBlock(fresh);
  EXPECT_FALSE(fs.BlockChecksumOk(fresh));
  EXPECT_EQ(fs.diverged_checksums(), 1u);
  bool synced = false;
  fs.Sync([&] { synced = true; });
  this->rig_->loop.Run();
  ASSERT_TRUE(synced);
  ASSERT_EQ(*fs.Bmap(this->ino_, 5), fresh);
  EXPECT_EQ(fs.DiskToken(fresh), fs.cache().Peek(this->ino_, 5)->data);
  EXPECT_TRUE(fs.BlockChecksumOk(fresh));
  EXPECT_EQ(fs.StoredChecksum(fresh), TokenCrc(fs.DiskToken(fresh)));
  EXPECT_EQ(fs.diverged_checksums(), 0u);
  EXPECT_TRUE(fs.CheckConsistency().clean());
}

// Rot on a block the checkpoint committed reaches the durable image with
// the checksum it had: the remounted stack keeps that checksum, so the block
// still fails verification on read and in fsck.
TYPED_TEST(BlockStoreTest, CorruptedCommittedBlockStaysDetectedAcrossRemount) {
  this->CheckpointToImage();
  BlockNo victim = *this->fs_->Bmap(this->ino_, 5);
  const uint64_t token = this->fs_->DiskToken(victim);
  this->fs_->CorruptBlock(victim);
  MountReport report = this->CrashAndMount();
  EXPECT_EQ(report.blocks_restored, kPages);
  auto& fs = *this->fs_;
  ASSERT_EQ(*fs.Bmap(this->ino_, 5), victim);
  EXPECT_NE(fs.DiskToken(victim), token);
  EXPECT_EQ(fs.StoredChecksum(victim), TokenCrc(token));
  EXPECT_FALSE(fs.BlockChecksumOk(victim));
  EXPECT_EQ(fs.diverged_checksums(), 1u);
  FsckReport fsck = fs.CheckConsistency();
  EXPECT_EQ(fsck.structural_errors, 0u);
  EXPECT_EQ(fsck.checksum_errors, 1u);
  EXPECT_EQ(fsck.first_bad_block, victim);
  FsIoResult result;
  fs.Read(this->ino_, 0, kPages * kPageSize, IoClass::kBestEffort,
          [&](const FsIoResult& r) { result = r; });
  this->rig_->loop.Run();
  EXPECT_EQ(result.status.code(), StatusCode::kCorruption);
  EXPECT_EQ(result.pages_failed, 1u);
  EXPECT_EQ(fs.checksum_errors_detected(), 1u);
}

// logfs rolls a synced tail forward, but a record torn by the crash (its
// token does not match the checksum committed with it) is discarded: the
// page keeps its checkpointed block, and every block reads clean.
using LogFsBlockStoreTest = BlockStoreTest<LogFs>;
TEST_F(LogFsBlockStoreTest, TornTailRecordIsDiscarded) {
  CheckpointToImage();
  const BlockNo checkpointed = *fs_->Bmap(ino_, 2);
  fs_->Write(ino_, 0, 4 * kPageSize, IoClass::kBestEffort, nullptr);
  bool synced = false;
  fs_->Sync([&] { synced = true; });
  rig_->loop.Run();
  ASSERT_TRUE(synced);
  image_.TearToken(*fs_->Bmap(ino_, 2));
  MountReport report = CrashAndMount();
  EXPECT_EQ(report.blocks_replayed, 3u);
  EXPECT_EQ(report.blocks_discarded, 1u);
  EXPECT_EQ(*fs_->Bmap(ino_, 2), checkpointed);
  EXPECT_EQ(fs_->diverged_checksums(), 0u);
  EXPECT_TRUE(fs_->CheckConsistency().clean());
  FsIoResult result;
  fs_->Read(ino_, 0, kPages * kPageSize, IoClass::kBestEffort,
            [&](const FsIoResult& r) { result = r; });
  rig_->loop.Run();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
}

}  // namespace
}  // namespace duet
