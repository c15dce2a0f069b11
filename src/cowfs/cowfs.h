// cowfs: a Btrfs-like copy-on-write file system over the simulated stack.
//
// Mechanisms the paper's tasks rely on (§5):
//  * per-block CRC32C checksums, verified on every read path — the scrubber's
//    correctness guarantee and the reason a page Added event means "verified";
//  * copy-on-write: every write allocates a new block, breaking sharing with
//    snapshots (the backup task's staleness signal);
//  * refcounted snapshots with back references (SharedWithSnapshot);
//  * extent fragmentation metrics and a defragmentation primitive.
#ifndef SRC_COWFS_COWFS_H_
#define SRC_COWFS_COWFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/fs/file_system.h"
#include "src/util/bitmap.h"
#include "src/util/rng.h"

namespace duet {

using SnapshotId = uint64_t;

struct DefragResult {
  Status status;
  uint64_t pages = 0;             // pages in the file
  uint64_t pages_read_disk = 0;   // read I/O actually performed
  uint64_t pages_from_cache = 0;  // reads saved by the cache
  uint64_t dirty_pages = 0;       // pages that were already dirty (write I/O
                                  // the workload would have issued anyway)
  uint64_t pages_written = 0;     // write I/O performed
  uint64_t extents_before = 0;
  uint64_t extents_after = 0;
};

class CowFs : public FileSystem {
 public:
  CowFs(EventLoop* loop, BlockDevice* device, uint64_t cache_pages,
        WritebackParams wb_params = WritebackParams());

  // ---- Checksums ----
  static uint32_t TokenChecksum(uint64_t token);
  // Verifies the on-disk copy of `block` against its stored checksum.
  bool BlockChecksumOk(BlockNo block) const;
  // Flips on-disk bits without updating the checksum (failure injection).
  // With `also_mirror`, the DUP mirror copy is corrupted too, making the
  // block unrecoverable by RepairBlocks.
  void CorruptBlock(BlockNo block, bool also_mirror = false);
  uint64_t checksum_errors_detected() const { return checksum_errors_detected_; }

  // ---- Raw block reads (scrubber; backup's unshared blocks) ----
  // Reads `count` blocks at `start` from the device, verifying checksums of
  // allocated blocks. Unallocated blocks in the range are skipped without
  // I/O. With `populate_cache`, blocks owned by a live file page are
  // inserted into the page cache (clean), surfacing the access to Duet —
  // this is how one maintenance pass serves other tasks (§6.3).
  void ReadRawBlocks(BlockNo start, uint32_t count, IoClass io_class,
                     bool populate_cache,
                     std::function<void(const RawReadResult&)> cb);

  // ---- Repair (scrubber error path) ----
  // Outcome of a RepairBlocks call.
  struct RepairResult {
    uint64_t attempted = 0;
    uint64_t repaired_from_cache = 0;   // clean cached page matched the csum
    uint64_t repaired_from_mirror = 0;  // DUP mirror copy matched the csum
    uint64_t unrecoverable = 0;         // no intact copy available
    uint64_t device_reads = 0;          // mirror reads issued
    uint64_t device_writes = 0;         // repair rewrites issued
    uint64_t repaired() const { return repaired_from_cache + repaired_from_mirror; }
  };

  // Attempts to repair `blocks` (bad checksum or unreadable): picks an intact
  // copy — a clean cached page whose token matches the stored checksum, else
  // the DUP mirror copy if its checksum matches — and rewrites the primary
  // block with it at `io_class`. Blocks with no intact copy are reported
  // unrecoverable (and to the fault injector, if attached). Blocks processed
  // sequentially; `cb` fires once all are done.
  void RepairBlocks(std::vector<BlockNo> blocks, IoClass io_class,
                    std::function<void(const RepairResult&)> cb);

  // ---- Allocation map queries (scrubber traversal) ----
  bool IsAllocated(BlockNo block) const { return allocated_.Test(block); }
  // First allocated block at or after `from`.
  std::optional<BlockNo> NextAllocated(BlockNo from) const;

  // ---- Snapshots (backup substrate) ----
  struct SnapshotFile {
    uint64_t size = 0;
    std::vector<BlockNo> blocks;
  };
  struct Snapshot {
    SnapshotId id = 0;
    // Ordered by inode number: the backup tool processes files in inode
    // order (paper Table 3).
    std::map<InodeNo, SnapshotFile> files;
  };

  // Takes a snapshot of every regular file. Requires a clean cache (callers
  // use CreateSnapshotAsync to sync first); asserts otherwise.
  Result<SnapshotId> CreateSnapshot();
  // Flushes dirty data, then snapshots.
  void CreateSnapshotAsync(std::function<void(Result<SnapshotId>)> cb);
  Status DeleteSnapshot(SnapshotId id);
  const Snapshot* GetSnapshot(SnapshotId id) const;

  // True if page `idx` of `ino` still shares its block with the snapshot
  // (i.e. has not been modified since) — the Btrfs back-reference check the
  // opportunistic backup performs (§5.2).
  bool SharedWithSnapshot(SnapshotId id, InodeNo ino, PageIdx idx) const;

  // ---- Fragmentation / defragmentation ----
  // Number of contiguous extents backing the file (1 = fully contiguous).
  uint64_t ExtentCount(InodeNo ino) const;

  // Rewrites the file into (as close as possible to) one contiguous extent:
  // reads all pages (cache hits are free), allocates a new contiguous run,
  // writes every page at `io_class`, remaps, and frees the old blocks.
  void DefragFile(InodeNo ino, IoClass io_class,
                  std::function<void(const DefragResult&)> cb);

  // Where the next-fit allocator starts its next search (tests).
  BlockNo alloc_cursor() const { return alloc_cursor_; }
  uint32_t BlockRefcount(BlockNo block) const { return refcount_[block]; }

  // ---- Crash consistency (superblock generations) ----
  // Atomically commits the current tree: Sync(), then serialize the
  // namespace, extent maps, and snapshot tables into the next superblock
  // generation (two-slot, CRC-protected). Every block the committed tree
  // references is pinned — not reusable by the allocator — until the NEXT
  // commit, so a crash always rolls back to an intact tree. Requires
  // quiesced foreground writes during the commit (a real COW file system's
  // transaction-commit stall) and an attached durable image.
  void CommitSuperblock(std::function<void(uint64_t generation)> done);
  void Checkpoint(std::function<void()> done) override;
  // Rolls back to the newest committed superblock generation: restores the
  // namespace, maps, snapshots, refcounts, and block content from the
  // durable image. Anything written after that commit is gone (cowfs has no
  // log tree). Must be called on a freshly constructed file system.
  void Mount(std::function<void(const MountReport&)> cb) override;
  FsckReport CheckConsistency() const override;

 protected:
  Result<BlockNo> AllocateForWrite(InodeNo ino, PageIdx idx, BlockNo old_block) override;
  void FreeFileBlocks(InodeNo ino) override;
  // One pass per file: the file map is looked up and sized once. Aged
  // population breaks extents: before each page the allocation cursor jumps
  // with probability `break_prob`, and the cursor is restored afterwards.
  Status PopulatePages(InodeNo ino, uint64_t npages, double break_prob, Rng* rng) override;
  Status OnDiskBlockRead(BlockNo block, uint64_t token) override;
  void OnBlockFlushed(BlockNo block, uint64_t token) override;
  void InjectCorruption(BlockNo block, bool both_copies) override;
  bool BlockInUse(BlockNo block) const override { return allocated_.Test(block); }
  uint32_t StoredChecksum(BlockNo block) const override { return disk_csum_[block]; }

 private:
  struct RepairJob;
  void RepairNext(std::shared_ptr<RepairJob> job);
  void WriteRepair(std::shared_ptr<RepairJob> job, BlockNo block, uint64_t token);

  // Allocates one free block, next-fit from `hint`. Blocks referenced by the
  // last committed superblock are skipped even when free (pinned until the
  // next commit), so rollback never finds its tree overwritten.
  Result<BlockNo> AllocBlock(BlockNo hint);
  // First free, unpinned block at or after `from`.
  std::optional<BlockNo> FindFreeUnpinned(BlockNo from) const;
  std::vector<uint8_t> SerializeSuperblock() const;
  Status RestoreFromSuperblock(const std::vector<uint8_t>& payload,
                               MountReport* report);
  // Allocates `n` contiguous free blocks; falls back to the longest runs
  // available. Returns the start blocks of the runs covering n blocks total.
  Result<std::vector<std::pair<BlockNo, uint32_t>>> AllocContiguous(uint64_t n);
  void Incref(BlockNo block);
  void Decref(BlockNo block);

  Bitmap allocated_;
  std::vector<uint32_t> refcount_;
  std::vector<uint32_t> disk_csum_;
  // DUP profile: a second physical copy of each block, kept in sync by
  // OnBlockFlushed. Repair reads it (one device read) when the primary is
  // corrupt; reading it does not consult the fault injector since it lives
  // at a different physical location.
  std::vector<uint64_t> mirror_data_;
  BlockNo alloc_cursor_ = 0;
  SnapshotId next_snapshot_id_ = 1;
  std::unordered_map<SnapshotId, Snapshot> snapshots_;
  uint64_t checksum_errors_detected_ = 0;
  // Blocks referenced by the last committed superblock. Pinned against both
  // in-place rewrite and reallocation until the next commit (btrfs's pinned
  // extents). Empty when no superblock was ever committed, making the whole
  // crash path zero-cost for stacks that never use it.
  Bitmap committed_;
  uint64_t superblock_generation_ = 0;
};

}  // namespace duet

#endif  // SRC_COWFS_COWFS_H_
