// cowfs: a Btrfs-like copy-on-write file system over the simulated stack.
//
// Mechanisms the paper's tasks rely on (§5), on top of FileSystem's block
// store (per-block CRC32C verified on every read path — the scrubber's
// correctness guarantee and the reason a page Added event means "verified"):
//  * a DUP mirror copy of every block, the scrubber's repair source (stored
//    only where it differs from the primary);
//  * copy-on-write: every write allocates a new block, breaking sharing with
//    snapshots (the backup task's staleness signal);
//  * refcounted snapshots: a page is shared with a snapshot while the live
//    file still maps it to the snapshot's block;
//  * extent fragmentation metrics and a defragmentation primitive.
//
// Its checkpoint is a superblock generation holding the snapshot tables;
// mount rolls back to it (cowfs has no log tree), and fsck recomputes every
// block's reference count.
#ifndef SRC_COWFS_COWFS_H_
#define SRC_COWFS_COWFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/fs/file_system.h"
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

  // ---- Raw block reads (scrubber) ----
  // Reads `count` blocks at `start` from the device, verifying checksums of
  // in-use blocks. Blocks not in use are skipped without I/O. Verified
  // blocks owned by a live file page are inserted into the page cache
  // (clean), surfacing the access to Duet — this is how one maintenance
  // pass serves other tasks (§6.3).
  void ReadRawBlocks(BlockNo start, uint32_t count, IoClass io_class,
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
  // FileSystem's store plus the refcounts and the diverged mirror copies.
  uint64_t MetadataMemoryBytes() const override;

 protected:
  Result<BlockNo> AllocateForWrite(InodeNo ino, PageIdx idx, BlockNo old_block) override;
  void FreeFileBlocks(InodeNo ino) override;
  // Fills runs of contiguous allocatable blocks, one TakeRun per run, and
  // looks up and sizes the file map once. Placement, tokens and draws are
  // those of a loop that takes one block per page next-fit from the cursor.
  // Aged population breaks extents: before each page the cursor jumps with
  // probability `break_prob`, so such a file takes a page per TakeRun, and
  // the cursor is restored afterwards.
  Status PopulatePages(InodeNo ino, uint64_t npages, double break_prob, Rng* rng) override;
  void OnBlockFlushed(BlockNo block, uint64_t token) override;
  void InjectCorruption(BlockNo block, bool both_copies) override;
  // Superblock state: the snapshot tables. The restore rebuilds refcounts
  // and the in-use bitmap from the restored trees and pins the restored
  // tree; the fresh store's mirror equals each loaded primary.
  void SerializeFsState(ByteWriter* w) const override;
  Status RestoreFsState(ByteReader* r, MountReport* report,
                        std::vector<BlockNo>* read_back) override;
  // Every block's reference count must equal its references from the live
  // extent maps and the snapshot tables, and it is in use iff referenced.
  // Counts in a byte per block, and again in 4 B only when a byte saturates.
  void CheckFsState(FsckReport* report) const override;

  // Content of `block`'s DUP mirror copy.
  uint64_t MirrorToken(BlockNo block) const;

 private:
  struct RepairJob;
  void RepairNext(std::shared_ptr<RepairJob> job);
  void WriteRepair(std::shared_ptr<RepairJob> job, BlockNo block, uint64_t token);

  void Incref(BlockNo block);
  void Decref(BlockNo block);
  // Calls fn(block) once per reference to a block: from each live file's
  // extent map, then from each snapshot table.
  template <typename Fn>
  void ForEachReference(Fn&& fn) const {
    ForEachFileMap([this, &fn](InodeNo ino, std::span<const BlockNo> blocks) {
      const Inode* inode = ns_.Get(ino);
      if (inode == nullptr || inode->is_dir()) {
        return;  // fsck reports any other map
      }
      for (BlockNo block : blocks) {
        if (block != kInvalidBlock) {
          fn(block);
        }
      }
    });
    for (const auto& [id, snap] : snapshots_) {
      for (const auto& [ino, file] : snap.files) {
        for (BlockNo block : file.blocks) {
          if (block != kInvalidBlock) {
            fn(block);
          }
        }
      }
    }
  }
  // Each block's references from the live files' extent maps and the
  // snapshot tables: what its refcount must be.
  std::vector<uint32_t> CountReferences() const;

  // Block -> reference count: 4 B per block, which makes cowfs's per-block
  // store 20 B. The rule fsck checks: a block is in use exactly when a live
  // file's extent map or a snapshot references it, and its refcount is the
  // number of those references. Every allocation (AllocateForWrite,
  // DefragFile, PopulatePages) takes its blocks through TakeRun, which marks
  // them in use before it returns them, and the caller sets the refcount
  // and maps them before control returns to the event loop. So no event
  // ever sees a block handed out twice or a reference change half made.
  std::vector<uint32_t> refcount_;
  // Tests plant a wrong refcount through it to check that fsck reports it
  // on both of its counts.
  friend class RefcountTestPeer;
  // DUP profile: a second physical copy of each block. Repair reads it (one
  // device read) when the primary is corrupt; reading it does not consult
  // the fault injector since it lives at a different physical location.
  // Only blocks whose mirror differs from the primary are stored, with the
  // mirror's token; every other block's mirror is its primary. A live
  // block's primary changes in two places, each keeping that rule: a flush
  // writes both copies (the entry goes), and InjectCorruption diverges them
  // (an entry is made, or flips when both copies are hit). Mount loads the
  // primaries into a fresh store, whose map is empty.
  std::unordered_map<BlockNo, uint64_t> mirror_diverged_;
  BlockNo alloc_cursor_ = 0;
  // The population test keeps the page-by-page loop PopulatePages replaced
  // and places cursors with it.
  friend class PopulateReference;
  SnapshotId next_snapshot_id_ = 1;
  std::unordered_map<SnapshotId, Snapshot> snapshots_;
};

}  // namespace duet

#endif  // SRC_COWFS_COWFS_H_
