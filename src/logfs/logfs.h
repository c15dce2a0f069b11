// logfs: an F2fs-like log-structured file system (paper §5.4).
//
// Blocks are grouped into segments. Writes append at the log head; updating
// a block invalidates its previous location. Segments with many invalid
// blocks are reclaimed by the garbage-collector task, which reads the
// remaining valid blocks (cache hits are free — the Duet optimization) and
// re-appends them to the log, freeing the segment.
//
// When no free segment is left, the allocator degrades to overwriting
// invalid blocks in scattered segments — the slow mode the paper measures a
// 57% latency increase in; `scattered_writes()` exposes how often it hit.
#ifndef SRC_LOGFS_LOGFS_H_
#define SRC_LOGFS_LOGFS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/fs/file_system.h"
#include "src/util/bitmap.h"

namespace duet {

using SegmentNo = uint64_t;

struct SegmentInfo {
  uint32_t valid = 0;   // live blocks in the segment
  uint32_t written = 0; // log-head position within the segment
  SimTime mtime = 0;    // last modification (age input to the cost function)
};

struct CleanResult {
  Status status;
  SegmentNo segment = 0;
  uint64_t blocks_moved = 0;
  uint64_t blocks_read_disk = 0;   // synchronous reads the cleaner performed
  uint64_t blocks_from_cache = 0;  // reads saved because blocks were cached
  uint64_t device_ops = 0;
  // Bad blocks the cleaner refused to move: re-appending a corrupt or
  // unreadable token would launder it under a fresh checksum. They stay in
  // place (and keep the segment occupied) until repaired or overwritten.
  uint64_t checksum_errors = 0;
  uint64_t read_errors = 0;
  SimDuration duration = 0;        // read phase duration (paper Table 6)
};

class LogFs : public FileSystem {
 public:
  LogFs(EventLoop* loop, BlockDevice* device, uint64_t cache_pages,
        uint32_t segment_blocks = 512, WritebackParams wb_params = WritebackParams());

  // ---- Checksums ----
  // Per-block CRC32C over the stored token, updated on every flush. The GC
  // verifies victims it reads, so cleaning doubles as corruption detection.
  static uint32_t TokenChecksum(uint64_t token);
  bool BlockChecksumOk(BlockNo block) const;
  // Flips on-disk bits without updating the checksum (failure injection).
  void CorruptBlock(BlockNo block) { InjectCorruption(block, false); }
  uint64_t checksum_errors_detected() const { return checksum_errors_detected_; }

  // ---- Geometry ----
  uint32_t segment_blocks() const { return segment_blocks_; }
  uint64_t segment_count() const { return sit_.size(); }
  SegmentNo SegmentOf(BlockNo block) const { return block / segment_blocks_; }

  // ---- Segment info table ----
  const SegmentInfo& segment(SegmentNo seg) const { return sit_[seg]; }
  bool BlockValid(BlockNo block) const { return valid_.Test(block); }
  uint64_t free_segments() const;
  uint64_t scattered_writes() const { return scattered_writes_; }

  // Valid blocks of a segment, ascending.
  std::vector<BlockNo> ValidBlocksOf(SegmentNo seg) const;

  // Number of a segment's valid blocks whose owning page is cached. The
  // Duet GC keeps this incrementally from events; this is the ground truth
  // used by tests and by victim selection fallbacks.
  uint64_t CachedValidBlocksOf(SegmentNo seg) const;

  // ---- Victim selection ----
  // Scans `window` segments starting at `window_start` (wrapping), skipping
  // the open log segment and free segments, and returns the segment with the
  // minimum cost according to `cost` (lower = better victim). Segments whose
  // cost is infinite (e.g. no invalid blocks) are skipped.
  std::optional<SegmentNo> SelectVictim(
      SegmentNo window_start, uint64_t window,
      const std::function<double(SegmentNo, const SegmentInfo&)>& cost) const;

  // ---- Cleaning ----
  // Moves every valid block of `seg` to the log head: uncached blocks are
  // read synchronously at `io_class`; all moved blocks are re-appended and
  // left dirty in the cache for asynchronous writeback (as F2fs does).
  void CleanSegment(SegmentNo seg, IoClass io_class,
                    std::function<void(const CleanResult&)> cb);

  // ---- Crash consistency (checkpoint + roll-forward) ----
  // Commits a checkpoint: Sync(), then serialize the namespace, extent maps,
  // log head, and segment table into the next checkpoint generation
  // (two-slot, CRC-protected), recording the durable image's commit sequence
  // as the replay threshold. Blocks the checkpoint references — and every
  // block committed after it — stay pinned against reuse until the NEXT
  // checkpoint (F2fs's prefree discipline), so roll-forward replay always
  // finds its records intact. Requires quiesced foreground writes during the
  // commit and an attached durable image.
  void WriteCheckpoint(std::function<void(uint64_t generation)> done);
  void Checkpoint(std::function<void()> done) override;
  // Loads the newest checkpoint, then rolls the log tail forward: every
  // image record committed after the checkpoint is replayed in commit-seq
  // order (checksum-verified; torn or orphaned records are discarded), and
  // the replayed tail is read back through the device so recovery latency
  // scales with the amount of work lost. Must be called on a freshly
  // constructed file system.
  void Mount(std::function<void(const MountReport&)> cb) override;
  FsckReport CheckConsistency() const override;

 protected:
  Result<BlockNo> AllocateForWrite(InodeNo ino, PageIdx idx, BlockNo old_block) override;
  void FreeFileBlocks(InodeNo ino) override;
  Status OnDiskBlockRead(BlockNo block, uint64_t token) override;
  void OnBlockFlushed(BlockNo block, uint64_t token) override;
  bool BlockInUse(BlockNo block) const override { return valid_.Test(block); }
  uint32_t StoredChecksum(BlockNo block) const override { return disk_csum_[block]; }

 private:
  // Next block at the log head; opens a new segment when the current one
  // fills, falling back to scattered overwrites when no segment is free.
  // With a durable image attached, blocks recovery depends on (pinned_) are
  // never handed out, and every block handed out is pinned in turn.
  Result<BlockNo> LogAppend();
  void Invalidate(BlockNo block);
  std::optional<SegmentNo> FindFreeSegment();
  std::vector<uint8_t> SerializeCheckpoint() const;
  Status RestoreFromCheckpoint(const std::vector<uint8_t>& payload,
                               MountReport* report, uint64_t* ckpt_seq);
  void ReplayImageRecords(uint64_t ckpt_seq, MountReport* report,
                          std::vector<BlockNo>* replayed);

  uint32_t segment_blocks_;
  std::vector<SegmentInfo> sit_;
  Bitmap valid_;                // block-level liveness
  std::vector<uint32_t> disk_csum_;  // block -> CRC32C of stored token
  SegmentNo open_segment_ = 0;  // current log head segment
  uint64_t scattered_writes_ = 0;
  uint64_t checksum_errors_detected_ = 0;
  // Union of the last checkpoint's referenced blocks and every block
  // written since; cleared down to the then-valid set at each checkpoint.
  // Only maintained when a durable image is attached — empty (and free)
  // otherwise.
  Bitmap pinned_;
  uint64_t checkpoint_generation_ = 0;
};

// The two victim-selection policies (paper §5.4):
//  * Baseline F2fs background GC: greedy-by-cost over data to move and age.
//  * Duet: subtract cached_blocks/2 from the blocks that need moving —
//    cached blocks save the read half of the move (reads and writes are
//    weighed equally).
double GcCostBaseline(const SegmentInfo& info, uint32_t segment_blocks, SimTime now);
double GcCostDuet(const SegmentInfo& info, uint32_t segment_blocks, SimTime now,
                  uint64_t cached_blocks);

}  // namespace duet

#endif  // SRC_LOGFS_LOGFS_H_
