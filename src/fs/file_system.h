// Shared file-system machinery for the two concrete file systems (cowfs,
// logfs): namespace, page cache, async read/write paths over the simulated
// block device, and writeback. Concrete file systems supply block placement
// (COW vs log-structured) through a small set of virtual hooks.
//
// All data callbacks are delivered through the event loop (never inline), so
// task state machines cannot recurse unboundedly on all-cached reads.
#ifndef SRC_FS_FILE_SYSTEM_H_
#define SRC_FS_FILE_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/block/block_device.h"
#include "src/cache/page_cache.h"
#include "src/cache/writeback.h"
#include "src/fs/namespace.h"
#include "src/obs/obs.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace duet {

class FaultInjector;
class ByteReader;
class ByteWriter;

// Outcome of an asynchronous file-system operation. The per-source page
// counts let maintenance tasks account I/O performed vs I/O saved.
struct FsIoResult {
  Status status;
  uint64_t pages_requested = 0;
  uint64_t pages_from_cache = 0;  // served without device I/O
  uint64_t pages_from_disk = 0;
  uint64_t pages_failed = 0;      // device read failed or checksum mismatch
  uint64_t device_ops = 0;        // requests submitted to the device
};

using FsIoCallback = std::function<void(const FsIoResult&)>;

// Outcome of a mount-time recovery (FileSystem::Mount).
struct MountReport {
  Status status;
  uint64_t generation = 0;       // checkpoint/superblock generation loaded
  uint64_t blocks_restored = 0;  // blocks reloaded from the durable image
  uint64_t blocks_replayed = 0;  // log records rolled forward (logfs)
  uint64_t blocks_discarded = 0; // torn or orphaned records discarded
  uint64_t blocks_missing = 0;   // referenced by metadata, absent from image
  uint64_t files = 0;            // regular files recovered
  uint64_t meta_bytes = 0;       // checkpoint payload size read
  SimDuration duration = 0;      // virtual time the mount took
};

// Outcome of an fsck-style full consistency check (CheckConsistency).
struct FsckReport {
  uint64_t blocks_checked = 0;
  uint64_t structural_errors = 0;  // refcount/bitmap/extent-map disagreements
  uint64_t checksum_errors = 0;    // stored CRC32C does not match content
  BlockNo first_bad_block = kInvalidBlock;

  bool clean() const { return structural_errors == 0 && checksum_errors == 0; }
  void NoteBad(BlockNo block) {
    if (first_bad_block == kInvalidBlock) {
      first_bad_block = block;
    }
  }
};

// Outcome of a raw block-level read (no page-cache involvement).
struct RawReadResult {
  Status status;
  uint64_t blocks_read = 0;
  uint64_t checksum_errors = 0;
  uint64_t read_errors = 0;  // device-level failures (latent sector errors)
  uint64_t device_ops = 0;
  // Blocks that failed verification or could not be read, ascending; the
  // scrubber's repair path consumes this.
  std::vector<BlockNo> bad_blocks;
};

class FileSystem : public WritebackTarget {
 public:
  FileSystem(EventLoop* loop, BlockDevice* device, uint64_t cache_pages,
             WritebackParams wb_params = WritebackParams());
  ~FileSystem() override = default;

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  // ---- Components ----
  Namespace& ns() { return ns_; }
  const Namespace& ns() const { return ns_; }
  PageCache& cache() { return cache_; }
  const PageCache& cache() const { return cache_; }
  BlockDevice& device() { return *device_; }
  EventLoop& loop() { return *loop_; }
  Writeback& writeback() { return writeback_; }

  // ---- Namespace convenience ----
  Result<InodeNo> CreateFile(std::string_view path) {
    return ns_.Create(path, FileType::kRegular);
  }
  Result<InodeNo> Mkdir(std::string_view path) {
    return ns_.Create(path, FileType::kDirectory);
  }
  // Unlinks a regular file: drops its cache pages, frees its blocks.
  Status DeleteFile(InodeNo ino);

  // ---- Data path (asynchronous; callbacks via the event loop) ----

  // Reads [off, off+len) of `ino`. Cached pages are free; misses are mapped
  // to blocks, coalesced into contiguous runs, and submitted at `io_class`.
  void Read(InodeNo ino, ByteOff off, uint64_t len, IoClass io_class, FsIoCallback cb);

  // Writes [off, off+len): allocates (COW / log-append) a new block per
  // page, installs dirty pages in the cache, extends the file if needed.
  // Completes without device I/O; writeback flushes later.
  void Write(InodeNo ino, ByteOff off, uint64_t len, IoClass io_class, FsIoCallback cb);

  // Appends `len` bytes at EOF.
  void Append(InodeNo ino, uint64_t len, IoClass io_class, FsIoCallback cb);

  // Like Write, but installs the given page contents instead of generating
  // fresh tokens (one token per page of the range). Used by copy tasks
  // (rsync's receiver) so destination content equals the source.
  void CopyIn(InodeNo ino, ByteOff off, uint64_t len, std::vector<uint64_t> tokens,
              IoClass io_class, FsIoCallback cb);

  // Reads an explicit list of device blocks, bypassing the page cache.
  // Consecutive block numbers are coalesced into single requests. Content
  // verification (checksums) happens via OnDiskBlockRead. Used by tasks that
  // must read data with no live page, e.g. preserved snapshot blocks.
  void ReadBlocks(std::vector<BlockNo> blocks, IoClass io_class,
                  std::function<void(const RawReadResult&)> cb);

  // ---- Mapping (the FIBMAP ioctl the paper relies on, §4.2) ----
  // Returns the device block currently backing page `idx` of `ino`.
  // Inline: block-task hook dispatch translates every page event through
  // Bmap, making this one of the hottest lookups in the stack.
  Result<BlockNo> Bmap(InodeNo ino, PageIdx idx) const {
    auto it = fmap_.find(ino);
    if (it == fmap_.end() || idx >= it->second.blocks.size() ||
        it->second.blocks[idx] == kInvalidBlock) {
      return Status(StatusCode::kNotFound, "unmapped page");
    }
    return it->second.blocks[idx];
  }

  // Reverse mapping (back references): the file page currently stored in
  // `block`, if any. Used to surface block-level reads as page events and by
  // the logfs cleaner.
  struct BlockOwner {
    InodeNo ino = kInvalidInode;
    PageIdx idx = 0;
  };
  Result<BlockOwner> Rmap(BlockNo block) const;

  // ---- Setup-time population (no I/O, no virtual time) ----
  // Creates the file's data instantly: allocates blocks, writes tokens and
  // metadata directly to the simulated disk. Returns the inode.
  Result<InodeNo> PopulateFile(std::string_view path, uint64_t bytes);

  // Population with deliberate fragmentation, where the file system supports
  // it (cowfs: after each page the allocation cursor jumps with probability
  // `break_prob`); otherwise it places like PopulateFile.
  Result<InodeNo> PopulateFileAged(std::string_view path, uint64_t bytes,
                                   double break_prob, Rng& rng);

  // ---- Crash consistency (durability boundary & recovery) ----

  // Wires the durable image (owned by the harness, so it survives stack
  // teardown) to this stack: the device commits its volatile write set into
  // it on every completed Flush(), pulling content through a provider backed
  // by this file system's simulated platter. Call before any I/O.
  void AttachDurableImage(DurableImage* image);
  DurableImage* durable_image() const { return image_; }

  // fsync-style barrier: flushes every dirty page, then issues a device
  // Flush(). When `done` fires, all data written before the call is in the
  // durable image (it survives a crash).
  void Sync(std::function<void()> done);

  // Setup-time seeding: commits every in-use block into the durable image
  // instantly (populate writes bypass the device, so the image never saw
  // them). Call after population, before the run starts.
  void SnapshotToDurable();

  // Commits a recovery point: Sync(), then serialize metadata and write it
  // to the image's checkpoint area (cowfs: superblock generation; logfs:
  // checkpoint). Requires quiesced foreground writes between the internal
  // Sync and the metadata write — the transaction-commit stall of a real
  // COW/log file system. The base implementation only syncs.
  virtual void Checkpoint(std::function<void()> done);

  // Mount-time recovery: rebuilds all in-memory state from the durable
  // image. Must be called on a freshly constructed file system (empty
  // namespace). The base implementation reports kNotSupported.
  virtual void Mount(std::function<void(const MountReport&)> cb);

  // fsck: verifies refcounts, allocation bitmaps, forward/reverse extent
  // maps, and per-block CRC32C of every in-use block. Pure in-memory check
  // (no modeled I/O); run it right after Mount to audit the recovered state.
  virtual FsckReport CheckConsistency() const;

  // ---- Fault injection ----
  // Wires a fault injector to this stack: the device consults it on every
  // request, its corruption sink flips this file system's on-disk content,
  // and its target filter skips blocks not in use. Call before
  // FaultInjector::Start(). Passing nullptr detaches.
  void AttachFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  // ---- Introspection ----
  uint64_t allocated_blocks() const { return allocated_blocks_; }
  uint64_t capacity_blocks() const { return disk_data_.size(); }
  // Token currently stored on disk for `block` (tests, verification).
  uint64_t DiskToken(BlockNo block) const { return disk_data_[block]; }
  // Current in-memory-or-disk content of a file page (cache wins).
  Result<uint64_t> PageContent(InodeNo ino, PageIdx idx) const;

  // WritebackTarget:
  void WritebackPages(std::vector<PageCache::DirtyPageRef> pages,
                      std::function<void()> done) override;

 protected:
  // ---- Placement hooks implemented by cowfs / logfs ----

  // Allocates the block that will back (ino, idx), given the previous block
  // (kInvalidBlock for a fresh page). Must update internal maps so Bmap
  // reflects the new location; must release/invalidate `old_block`.
  virtual Result<BlockNo> AllocateForWrite(InodeNo ino, PageIdx idx,
                                           BlockNo old_block) = 0;

  // Frees every block of the file (unlink path).
  virtual void FreeFileBlocks(InodeNo ino) = 0;

  // Setup-time population of the `npages` pages of `ino`, a file just
  // created with no pages: allocates, maps and writes each page in index
  // order. A null `rng` means plain population. The base places every page
  // through AllocateForWrite and ignores aging.
  virtual Status PopulatePages(InodeNo ino, uint64_t npages, double break_prob,
                               Rng* rng);

  // Called when a block's content has been read from the device; cowfs
  // verifies the stored checksum here.
  virtual Status OnDiskBlockRead(BlockNo block, uint64_t token);

  // Called when writeback has persisted `token` into `block`; cowfs updates
  // the block checksum, logfs updates segment metadata.
  virtual void OnBlockFlushed(BlockNo block, uint64_t token);

  // Corruption sink for the fault injector (and the CorruptBlock test
  // hooks): flips the on-disk content of `block` without touching any stored
  // checksum. cowfs extends it to optionally corrupt the DUP mirror too.
  virtual void InjectCorruption(BlockNo block, bool both_copies);

  // True if `block` currently holds live data (fault targeting filter).
  virtual bool BlockInUse(BlockNo /*block*/) const { return true; }

  // Stored checksum of `block` (may legitimately disagree with the current
  // content — that is how torn writes and bit rot are detected). Feeds the
  // durable-image content provider.
  virtual uint32_t StoredChecksum(BlockNo /*block*/) const { return 0; }

  // Shared checkpoint payload pieces: the namespace (inode table) and the
  // forward extent map, in deterministic (inode-sorted) order.
  void SerializeNamespaceAndMaps(ByteWriter* w) const;
  // Inverse of the above; installs inodes and page->block mappings (which
  // also rebuilds the reverse map). Returns false on a malformed payload.
  bool RestoreNamespaceAndMaps(ByteReader* r, uint64_t* files_out);

  // Shared fsck piece: every page of every live file must be mapped (no
  // holes), its block in use, and the reverse map must agree.
  void CheckFileMappings(FsckReport* report) const;

  // Forward/reverse map storage shared by both file systems.
  struct FileMap {
    std::vector<BlockNo> blocks;  // page index -> block
  };
  std::unordered_map<InodeNo, FileMap> fmap_;
  std::vector<BlockOwner> rmap_;     // block -> owner page
  std::vector<uint64_t> disk_data_;  // block -> stored token
  uint64_t allocated_blocks_ = 0;

  // Fresh unique content token.
  uint64_t NextToken() { return token_counter_ += 0x9e3779b97f4a7c15ULL; }

  // Installs a page->block mapping (and the reverse map).
  void SetMapping(InodeNo ino, PageIdx idx, BlockNo block);
  void ClearOwner(BlockNo block);

  EventLoop* loop_;
  BlockDevice* device_;
  // Captured at construction, like every other layer, so deferred emits
  // (checkpoint commits, mount recovery, fsck) report into the context the
  // file system was built under, not whichever scope is current later.
  obs::ObsContext* obs_;
  PageCache cache_;
  Namespace ns_;
  Writeback writeback_;
  FaultInjector* injector_ = nullptr;
  DurableImage* image_ = nullptr;

 private:
  // Creates `path` and populates its pages (PopulatePages), then its size.
  Result<InodeNo> Populate(std::string_view path, uint64_t bytes, double break_prob,
                           Rng* rng);
  struct ReadJob;
  void FinishViaLoop(FsIoCallback cb, FsIoResult result);

  uint64_t token_counter_ = 1;
};

}  // namespace duet

#endif  // SRC_FS_FILE_SYSTEM_H_
