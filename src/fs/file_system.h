// Shared file-system machinery for the two concrete file systems (cowfs,
// logfs): namespace, page cache, async read/write paths over the simulated
// block device, writeback, and the block store both keep the same way — the
// in-use bitmap, a CRC32C per block verified on every read path, the blocks
// pinned by the last checkpoint, the allocatable index over both bitmaps, and
// one checkpoint / mount / fsck path.
// Concrete file systems supply block placement (COW vs log-structured) and
// their own checkpoint payload and fsck rules through a small set of virtual
// hooks.
//
// All data callbacks are delivered through the event loop (never inline), so
// task state machines cannot recurse unboundedly on all-cached reads.
#ifndef SRC_FS_FILE_SYSTEM_H_
#define SRC_FS_FILE_SYSTEM_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/block/block_device.h"
#include "src/cache/page_cache.h"
#include "src/cache/writeback.h"
#include "src/fs/namespace.h"
#include "src/obs/obs.h"
#include "src/sim/event_loop.h"
#include "src/util/bitmap.h"
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
  // First 64-block word whose allocatable index bit disagrees with the
  // in-use and pinned bitmaps; each such word is a structural error.
  std::optional<uint64_t> first_bad_index_word;

  bool clean() const { return structural_errors == 0 && checksum_errors == 0; }
  // Keeps the lowest bad block, so the report does not depend on the order
  // the checks run in.
  void NoteBad(BlockNo block) { first_bad_block = std::min(first_bad_block, block); }
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
  // `checkpoint_slot` names the durable image's checkpoint slots this file
  // system commits to and mounts from.
  FileSystem(EventLoop* loop, BlockDevice* device, uint64_t cache_pages,
             WritebackParams wb_params, std::string checkpoint_slot);
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
  // Consecutive block numbers are coalesced into single requests, and every
  // block read is checked by VerifyBlock. Used by tasks that must read data
  // with no live page, e.g. preserved snapshot blocks.
  void ReadBlocks(std::vector<BlockNo> blocks, IoClass io_class,
                  std::function<void(const RawReadResult&)> cb);

  // ---- Mapping (the FIBMAP ioctl the paper relies on, §4.2) ----
  // Returns the device block currently backing page `idx` of `ino`.
  Result<BlockNo> Bmap(InodeNo ino, PageIdx idx) const {
    BlockNo block = BlockOf(ino, idx);
    if (block == kInvalidBlock) {
      return Status(StatusCode::kNotFound, "unmapped page");
    }
    return block;
  }
  // Bmap without the status: kInvalidBlock for an unmapped page. Inline:
  // Duet translates every block-task page event and fetch through it, making
  // this one of the hottest lookups in the stack. Two array loads.
  BlockNo BlockOf(InodeNo ino, PageIdx idx) const {
    if (ino >= fmap_.size() || idx >= fmap_[ino].blocks.size()) {
      return kInvalidBlock;
    }
    return fmap_[ino].blocks[idx];
  }

  // Reverse mapping (back references): the file page currently stored in
  // `block`, if any. Used to surface block-level reads as page events and by
  // the logfs cleaner. The store packs each owner into 8 B (RmapEntry).
  struct BlockOwner {
    InodeNo ino = kInvalidInode;
    PageIdx idx = 0;
  };
  // Inline: Duet resolves the owner of every block a block task marks done.
  Result<BlockOwner> Rmap(BlockNo block) const {
    if (block >= rmap_.size() || rmap_[block].ino == kInvalidInode) {
      return Status(StatusCode::kNotFound, "unowned block");
    }
    return BlockOwner{rmap_[block].ino, rmap_[block].idx};
  }

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

  // Commits a recovery point: Sync(), then serializes the namespace, the
  // extent maps and the file system's own state (SerializeFsState) into the
  // next checkpoint generation (two-slot, CRC-protected), written
  // MetaIoLatency(payload bytes) after the sync's device flush. Every block
  // in use at the commit is pinned — not reusable by the allocator — until
  // the NEXT commit, so recovery always finds the checkpointed tree intact.
  // Requires quiesced foreground writes during the commit (the
  // transaction-commit stall of a real COW/log file system) and an attached
  // durable image.
  void Checkpoint(std::function<void()> done);

  // Mount-time recovery: loads the newest checkpoint generation, restores
  // the namespace and extent maps, then the file system's own state
  // (RestoreFsState), and reads back the blocks that hook returns. Takes
  // MetaIoLatency(checkpoint bytes) plus the read-back. Must be called on a
  // freshly constructed file system (empty namespace) with an attached
  // durable image.
  void Mount(std::function<void(const MountReport&)> cb);

  // fsck: verifies the forward/reverse extent maps, the file system's own
  // tables (CheckFsState), the in-use count, and the CRC32C of every in-use
  // block. Pure in-memory check (no modeled I/O); run it right after Mount
  // to audit the recovered state.
  FsckReport CheckConsistency() const;

  // ---- Fault injection ----
  // Wires a fault injector to this stack: the device consults it on every
  // request, its corruption sink flips this file system's on-disk content,
  // and its target filter skips blocks not in use. Call before
  // FaultInjector::Start(). Passing nullptr detaches.
  void AttachFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  // ---- Block store ----
  // True if `block` currently holds live data.
  bool BlockInUse(BlockNo block) const { return in_use_.Test(block); }
  // First in-use block at or after `from` (physical order).
  std::optional<BlockNo> NextBlockInUse(BlockNo from) const {
    return in_use_.FindNextSet(from);
  }
  // Verifies the on-disk copy of `block` against its stored checksum.
  bool BlockChecksumOk(BlockNo block) const;
  // Flips on-disk bits without updating the checksum (failure injection).
  // With `also_mirror`, cowfs's DUP mirror copy is corrupted too, making the
  // block unrecoverable by RepairBlocks.
  void CorruptBlock(BlockNo block, bool also_mirror = false) {
    InjectCorruption(block, also_mirror);
  }
  // Checksum mismatches VerifyBlock found on in-use blocks.
  uint64_t checksum_errors_detected() const { return checksum_errors_detected_; }

  // ---- Introspection ----
  // Bytes of the block store's per-block arrays (reverse map, token, CRC32C
  // and the file system's own, e.g. cowfs's refcounts and diverged mirror
  // copies) plus 8 B per extent-map entry. The in-use and pinned bitmaps
  // (2 bits per block), the allocatable index (1 bit per 64 blocks) and
  // container headers are not counted.
  virtual uint64_t MetadataMemoryBytes() const;
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

  // Called when `token` has been persisted into `block` (writeback, repair,
  // population): stores it and its checksum. cowfs also updates its mirror.
  virtual void OnBlockFlushed(BlockNo block, uint64_t token);

  // Corruption sink for the fault injector (and CorruptBlock): flips the
  // on-disk content of `block` (XOR with kCorruptionFlip) without touching
  // its stored checksum. cowfs extends it to optionally corrupt the DUP
  // mirror too.
  virtual void InjectCorruption(BlockNo block, bool both_copies);
  static constexpr uint64_t kCorruptionFlip = 0xdeadbeefcafef00dULL;

  // ---- Checkpoint hooks: the file system's own state ----
  // Appends this file system's state to a checkpoint payload, after the
  // namespace and extent maps.
  virtual void SerializeFsState(ByteWriter* w) const = 0;
  // Inverse of SerializeFsState, run at mount after the namespace and maps
  // are restored: rebuilds the in-use bitmap, block content (LoadBlock) and
  // pins. Blocks appended to `read_back` are read through the device before
  // the mount completes.
  virtual Status RestoreFsState(ByteReader* r, MountReport* report,
                                std::vector<BlockNo>* read_back) = 0;
  // Checks this file system's own tables; counts what disagrees.
  virtual void CheckFsState(FsckReport* report) const = 0;

  static uint32_t TokenChecksum(uint64_t token);

  // Checks the content just read from `block` against its stored checksum.
  // A mismatch on an in-use block is counted in checksum_errors_detected()
  // and reported to the fault injector.
  Status VerifyBlock(BlockNo block);

  // In-use bitmap updates; both keep allocated_blocks_ and the allocatable
  // index. MarkFree also drops the block's reverse mapping.
  void MarkInUse(BlockNo block) {
    in_use_.Set(block);
    NoteTaken(block);
    ++allocated_blocks_;
  }
  void MarkFree(BlockNo block);
  // MarkInUse over [start, start + count), a run of allocatable blocks.
  void MarkRunInUse(BlockNo start, uint64_t count);

  // Pins: blocks recovery depends on, which neither allocator hands out or
  // rewrites in place. Pin adds one; PinAllInUse pins exactly the blocks in
  // use now and drops every earlier pin (a checkpoint commit or mount).
  void Pin(BlockNo block) {
    pinned_.Set(block);
    NoteTaken(block);
  }
  void PinAllInUse();

  // First allocatable block (neither in use nor pinned) at or after `from`,
  // or nullopt. Reads the allocatable index, then one bitmap word.
  std::optional<BlockNo> NextAllocatable(BlockNo from) const;
  // How many blocks from `start` on are allocatable in a row, at most `max`:
  // 0 when `start` itself is taken or past the device's end.
  uint64_t AllocatableRunLength(BlockNo start, uint64_t max) const;

  const Bitmap& in_use() const { return in_use_; }
  const Bitmap& pinned() const { return pinned_; }

  // Mount helper: reloads `block`'s content and stored checksum from the
  // durable image, counting it restored, or missing if never committed.
  void LoadBlock(BlockNo block, MountReport* report);

  // Forward/reverse map storage shared by both file systems.
  struct FileMap {
    std::vector<BlockNo> blocks;  // page index -> block
  };
  // The extent map of `ino` (page index -> block, kInvalidBlock for a
  // hole); empty when the file has none. A file has a map from its first
  // mapped page until it is deleted, so an empty map is no map.
  std::span<const BlockNo> MapOf(InodeNo ino) const {
    return ino < fmap_.size() ? std::span<const BlockNo>(fmap_[ino].blocks)
                              : std::span<const BlockNo>();
  }
  // The extent map of `ino` for update, creating its entry. The reference
  // is good until the next MapFor or SetMapping of a higher inode, which
  // may grow the table.
  std::vector<BlockNo>& MapFor(InodeNo ino) {
    if (ino >= fmap_.size()) {
      fmap_.resize(ino + 1);
    }
    return fmap_[ino].blocks;
  }
  // Calls fn(ino, blocks) for every file with an extent map, in inode order.
  template <typename Fn>
  void ForEachFileMap(Fn&& fn) const {
    for (InodeNo ino = 0; ino < fmap_.size(); ++ino) {
      if (!fmap_[ino].blocks.empty()) {
        fn(ino, std::span<const BlockNo>(fmap_[ino].blocks));
      }
    }
  }
  // One reverse-map entry: the owner page of a block in 8 B, so an inode
  // number or page index must fit 32 bits (SetOwner aborts otherwise).
  // ino == kInvalidInode means the block has no owner.
  struct RmapEntry {
    uint32_t ino = 0;
    uint32_t idx = 0;
  };
  static_assert(sizeof(RmapEntry) == 8, "a reverse-map entry is 8 B");

  // Records (ino, idx) as the owner of `block`; aborts with a message when
  // either is 2^32 or more.
  void SetOwner(BlockNo block, InodeNo ino, PageIdx idx) {
    rmap_[block] = OwnerEntry(ino, idx);
  }
  // The reverse-map entry for (ino, idx), with SetOwner's check.
  static RmapEntry OwnerEntry(InodeNo ino, PageIdx idx);

  // Extent maps indexed by inode number: inode numbers are dense and never
  // reused (Namespace), so FIBMAP is an array load, as in PageIndex.
  std::vector<FileMap> fmap_;
  // The per-block store: 20 B per block here (reverse map 8, token 8,
  // CRC32C 4) plus the in-use and pinned bitmaps and the allocatable index
  // (below); cowfs's refcount makes it 24 B.
  std::vector<RmapEntry> rmap_;      // block -> owner page
  std::vector<uint64_t> disk_data_;  // block -> stored token
  std::vector<uint32_t> disk_csum_;  // block -> CRC32C of the stored token

  // Fresh unique content token.
  uint64_t NextToken() { return token_counter_ += 0x9e3779b97f4a7c15ULL; }

  // Installs a page->block mapping (and the reverse map).
  void SetMapping(InodeNo ino, PageIdx idx, BlockNo block);

  EventLoop* loop_;
  BlockDevice* device_;
  // The loop's context, like every other layer's: deferred emits
  // (checkpoint commits, mount recovery, fsck) report there too.
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

  // Checkpoint payload pieces both file systems share: the namespace (inode
  // table) and the forward extent maps, in inode order. The restore installs
  // inodes and page->block mappings (which also rebuilds the reverse map);
  // false on a malformed payload.
  void SerializeNamespaceAndMaps(ByteWriter* w) const;
  bool RestoreNamespaceAndMaps(ByteReader* r, uint64_t* files_out);

  // fsck piece both file systems share: every extent map belongs to a live
  // regular file, every page of a live file is mapped (no holes), its block
  // in use, and the reverse map agrees.
  void CheckFileMappings(FsckReport* report) const;

  // Blocks of 64-block word `w` that cannot be allocated: in use, pinned,
  // or past the device's last block.
  uint64_t TakenWord(uint64_t w) const {
    uint64_t taken = in_use_.Word(w) | pinned_.Word(w);
    uint64_t real = in_use_.size() - w * 64;
    return real >= 64 ? taken : taken | (~uint64_t{0} << real);
  }
  // Clears the allocatable index bit of `block`'s word once the word holds
  // no allocatable block.
  void NoteTaken(BlockNo block) {
    if (TakenWord(block / 64) == ~uint64_t{0}) {
      allocatable_words_.Clear(block / 64);
    }
  }
  // The allocatable index derived from the two bitmaps from scratch: what
  // PinAllInUse installs and fsck compares with.
  Bitmap ComputeAllocatableWords() const;

  Bitmap in_use_;                  // block-level liveness
  uint64_t allocated_blocks_ = 0;  // set bits of in_use_
  // Blocks recovery depends on: the blocks in use at the last checkpoint
  // (plus, in logfs, every block appended since). Empty until the first
  // checkpoint or mount, making the crash path free for stacks that never
  // use it. Written only through Pin and PinAllInUse.
  Bitmap pinned_;
  // The allocatable index: bit w is set when 64-block word w of the device
  // holds a block that is neither in use nor pinned. Kept by MarkInUse,
  // MarkFree, Pin and PinAllInUse; NextAllocatable skips clear words.
  Bitmap allocatable_words_;
  // Tests plant a stale index bit through it to check that fsck reports it.
  friend class AllocatableIndexTestPeer;

  const std::string checkpoint_slot_;
  uint64_t checkpoint_generation_ = 0;
  uint64_t checksum_errors_detected_ = 0;
  uint64_t token_counter_ = 1;
};

}  // namespace duet

#endif  // SRC_FS_FILE_SYSTEM_H_
