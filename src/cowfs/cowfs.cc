#include "src/cowfs/cowfs.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "src/fault/fault_injector.h"
#include "src/fs/meta_codec.h"

namespace duet {

CowFs::CowFs(EventLoop* loop, BlockDevice* device, uint64_t cache_pages,
             WritebackParams wb_params)
    : FileSystem(loop, device, cache_pages, wb_params, "cowfs.sb"),
      refcount_(device->capacity_blocks(), 0) {}

void CowFs::InjectCorruption(BlockNo block, bool both_copies) {
  const uint64_t before = disk_data_[block];
  FileSystem::InjectCorruption(block, both_copies);
  if (both_copies) {
    // Both copies take the same flip: a mirror equal to the primary stays
    // equal, a diverged one keeps diverging.
    if (auto it = mirror_diverged_.find(block); it != mirror_diverged_.end()) {
      it->second ^= kCorruptionFlip;
    }
    return;
  }
  // The mirror keeps its content: the primary's before the flip, unless it
  // had diverged already. A second flip can bring the two back together.
  auto it = mirror_diverged_.try_emplace(block, before).first;
  if (it->second == disk_data_[block]) {
    mirror_diverged_.erase(it);
  }
}

uint64_t CowFs::MirrorToken(BlockNo block) const {
  auto it = mirror_diverged_.find(block);
  return it == mirror_diverged_.end() ? disk_data_[block] : it->second;
}

uint64_t CowFs::MetadataMemoryBytes() const {
  return FileSystem::MetadataMemoryBytes() + refcount_.capacity() * sizeof(uint32_t) +
         SparseMapBytes(mirror_diverged_);
}

void CowFs::Incref(BlockNo block) {
  assert(BlockInUse(block));
  ++refcount_[block];
}

void CowFs::Decref(BlockNo block) {
  assert(BlockInUse(block));
  assert(refcount_[block] > 0);
  if (--refcount_[block] == 0) {
    MarkFree(block);
  }
}

Result<BlockNo> CowFs::AllocateForWrite(InodeNo ino, PageIdx idx, BlockNo old_block) {
  if (old_block != kInvalidBlock) {
    // Same-transaction optimization: if the previous block is exclusively
    // ours (no snapshot reference), its page is still dirty (never flushed),
    // and it is not part of the committed superblock tree (crash rollback
    // would need its old content), rewrite it in place rather than COWing.
    const CachedPage* page = cache_.Peek(ino, idx);
    if (refcount_[old_block] == 1 && page != nullptr && page->dirty &&
        !pinned().Test(old_block)) {
      return old_block;
    }
  }
  // Place the copy near the old block, or extend past the previous page.
  BlockNo hint = alloc_cursor_;
  if (old_block != kInvalidBlock) {
    hint = old_block + 1;
  } else if (idx > 0) {
    if (Result<BlockNo> prev = Bmap(ino, idx - 1); prev.ok()) {
      hint = *prev + 1;
    }
  }
  std::optional<BlockRun> fresh = TakeRun(hint, 1);
  if (!fresh.has_value()) {
    return Status(StatusCode::kNoSpace, "cowfs full");
  }
  alloc_cursor_ = fresh->start + 1;
  refcount_[fresh->start] = 1;
  if (old_block != kInvalidBlock) {
    Decref(old_block);
  }
  SetMapping(ino, idx, fresh->start);
  return fresh->start;
}

void CowFs::FreeFileBlocks(InodeNo ino) {
  for (BlockNo block : MapOf(ino)) {
    if (block != kInvalidBlock) {
      Decref(block);
    }
  }
}

void CowFs::OnBlockFlushed(BlockNo block, uint64_t token) {
  FileSystem::OnBlockFlushed(block, token);
  // Both copies now hold `token`. Population and writeback flush blocks
  // that almost never diverged, so skip the hash when nothing has.
  if (!mirror_diverged_.empty()) {
    mirror_diverged_.erase(block);
  }
}

void CowFs::ReadRawBlocks(BlockNo start, uint32_t count, IoClass io_class,
                          VerifiedRunFn on_verified,
                          std::function<void(const RawReadResult&)> cb) {
  // Collect in-use blocks in the range and coalesce them into runs.
  std::vector<std::pair<BlockNo, uint32_t>> runs;
  BlockNo cursor = start;
  BlockNo end = std::min<BlockNo>(start + count, capacity_blocks());
  while (cursor < end) {
    std::optional<BlockNo> next = NextBlockInUse(cursor);
    if (!next.has_value() || *next >= end) {
      break;
    }
    BlockNo run_start = *next;
    BlockNo run_end = run_start;
    while (run_end < end && BlockInUse(run_end)) {
      ++run_end;
    }
    runs.emplace_back(run_start, static_cast<uint32_t>(run_end - run_start));
    cursor = run_end;
  }
  auto result = std::make_shared<RawReadResult>();
  if (runs.empty()) {
    loop_->ScheduleAfter(0, [cb = std::move(cb), result] { cb(*result); });
    return;
  }
  auto outstanding = std::make_shared<uint64_t>(runs.size());
  auto cb_shared = std::make_shared<std::function<void(const RawReadResult&)>>(std::move(cb));
  auto on_verified_shared = std::make_shared<VerifiedRunFn>(std::move(on_verified));
  for (const auto& [run_start, run_count] : runs) {
    IoRequest req;
    req.block = run_start;
    req.count = run_count;
    req.dir = IoDir::kRead;
    req.io_class = io_class;
    ++result->device_ops;
    req.done = [this, run_start, run_count, result, outstanding, cb_shared,
                on_verified_shared](const IoResult& io) {
      if (io.status.code() == StatusCode::kBusy) {
        // Transient whole-request failure: nothing was transferred.
        result->status = io.status;
        if (--*outstanding == 0) {
          std::sort(result->bad_blocks.begin(), result->bad_blocks.end());
          (*cb_shared)(*result);
        }
        return;
      }
      // Maximal runs of verified blocks. A block freed since the request
      // was issued was read but holds nothing to verify.
      std::vector<std::pair<BlockNo, uint32_t>> verified;
      for (BlockNo b = run_start; b < run_start + run_count; ++b) {
        ++result->blocks_read;
        if (io.BlockFailed(b)) {
          // Latent sector error: the medium returned EIO, no data came back.
          ++result->read_errors;
          result->bad_blocks.push_back(b);
          result->status = io.status;
        } else if (!BlockInUse(b)) {
          continue;
        } else if (Status verify = VerifyBlock(b); !verify.ok()) {
          ++result->checksum_errors;
          result->bad_blocks.push_back(b);
          if (result->status.ok()) {
            result->status = verify;
          }
        } else if (!verified.empty() && verified.back().first + verified.back().second == b) {
          ++verified.back().second;
        } else {
          verified.emplace_back(b, 1);
        }
      }
      for (const auto& [first, n] : verified) {
        (*on_verified_shared)(first, n);
      }
      // Only verified content may enter the page cache; caching a corrupt
      // or unread token would mask the fault from every later reader. A
      // snapshot block keeps its reverse-map entry after its page moves
      // (COW): its content is the page's old version, not the page.
      for (const auto& [first, n] : verified) {
        for (BlockNo b = first; b < first + n; ++b) {
          Result<BlockOwner> owner = Rmap(b);
          if (owner.ok() && BlockOf(owner->ino, owner->idx) == b &&
              !cache_.Contains(owner->ino, owner->idx)) {
            cache_.Insert(owner->ino, owner->idx, disk_data_[b], /*dirty=*/false);
          }
        }
      }
      if (--*outstanding == 0) {
        std::sort(result->bad_blocks.begin(), result->bad_blocks.end());
        (*cb_shared)(*result);
      }
    };
    device_->Submit(std::move(req));
  }
}

// Sequential repair state machine. Faults are rare, so one block at a time
// keeps the logic (and the virtual-time ordering) simple and deterministic.
struct CowFs::RepairJob {
  std::vector<BlockNo> blocks;
  size_t next = 0;
  IoClass io_class = IoClass::kIdle;
  RepairResult result;
  std::function<void(const RepairResult&)> cb;
};

void CowFs::RepairBlocks(std::vector<BlockNo> blocks, IoClass io_class,
                         std::function<void(const RepairResult&)> cb) {
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  auto job = std::make_shared<RepairJob>();
  job->blocks = std::move(blocks);
  job->io_class = io_class;
  job->cb = std::move(cb);
  RepairNext(std::move(job));
}

void CowFs::RepairNext(std::shared_ptr<RepairJob> job) {
  while (job->next < job->blocks.size()) {
    BlockNo block = job->blocks[job->next++];
    if (!BlockInUse(block)) {
      // Freed (COW) since it was reported bad; nothing left to repair.
      continue;
    }
    ++job->result.attempted;
    const uint32_t want = StoredChecksum(block);

    // Source 1: a clean cached page whose content matches the stored
    // checksum — repair costs one write, no read.
    Result<BlockOwner> owner = Rmap(block);
    if (owner.ok()) {
      const CachedPage* page = cache_.Peek(owner->ino, owner->idx);
      if (page != nullptr && !page->dirty && TokenChecksum(page->data) == want) {
        ++job->result.repaired_from_cache;
        WriteRepair(std::move(job), block, page->data);
        return;
      }
    }

    // Source 2: the DUP mirror copy, if intact — one read plus one write.
    if (TokenChecksum(MirrorToken(block)) == want) {
      ++job->result.device_reads;
      IoRequest req;
      req.block = block;
      req.count = 1;
      req.dir = IoDir::kRead;
      req.io_class = job->io_class;
      req.consult_faults = false;  // mirror lives elsewhere on the platter
      req.done = [this, job = std::move(job), block](const IoResult&) mutable {
        // Re-check: the block may have been freed or COWed away while the
        // mirror read was queued. Note a latent-error block's simulated
        // token can look intact (the failure is in readability), so the
        // rewrite proceeds whenever the mirror still matches the checksum.
        if (BlockInUse(block) &&
            TokenChecksum(MirrorToken(block)) == StoredChecksum(block)) {
          ++job->result.repaired_from_mirror;
          WriteRepair(std::move(job), block, MirrorToken(block));
        } else {
          RepairNext(std::move(job));
        }
      };
      device_->Submit(std::move(req));
      return;
    }

    // No intact copy anywhere: data loss.
    ++job->result.unrecoverable;
    if (injector_ != nullptr) {
      injector_->NoteUnrecoverable(block);
    }
  }
  loop_->ScheduleAfter(0, [job = std::move(job)] { job->cb(job->result); });
}

void CowFs::WriteRepair(std::shared_ptr<RepairJob> job, BlockNo block,
                        uint64_t token) {
  ++job->result.device_writes;
  IoRequest req;
  req.block = block;
  req.count = 1;
  req.dir = IoDir::kWrite;
  req.io_class = job->io_class;
  req.done = [this, job = std::move(job), block, token](const IoResult&) mutable {
    // Persist the healed content; the injector observes the rewrite (via
    // OnWriteApplied after this callback) and counts the fault repaired.
    OnBlockFlushed(block, token);
    RepairNext(std::move(job));
  };
  device_->Submit(std::move(req));
}

Result<SnapshotId> CowFs::CreateSnapshot() {
  assert(cache_.DirtyCount() == 0 && "sync before snapshotting");
  Snapshot snap;
  snap.id = next_snapshot_id_++;
  ns_.ForEachInode([&](const Inode& inode) {
    if (inode.is_dir()) {
      return;
    }
    std::span<const BlockNo> map = MapOf(inode.ino);
    if (map.empty()) {
      return;  // no page was ever mapped: nothing to preserve
    }
    SnapshotFile file;
    file.size = inode.size;
    map = map.first(std::min<uint64_t>(map.size(), inode.PageCount()));
    file.blocks.assign(map.begin(), map.end());
    for (BlockNo block : file.blocks) {
      if (block != kInvalidBlock) {
        Incref(block);
      }
    }
    snap.files.emplace(inode.ino, std::move(file));
  });
  SnapshotId id = snap.id;
  snapshots_.emplace(id, std::move(snap));
  return id;
}

void CowFs::CreateSnapshotAsync(std::function<void(Result<SnapshotId>)> cb) {
  writeback_.Sync([this, cb = std::move(cb)] { cb(CreateSnapshot()); });
}

Status CowFs::DeleteSnapshot(SnapshotId id) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return Status(StatusCode::kNotFound);
  }
  for (const auto& [ino, file] : it->second.files) {
    for (BlockNo block : file.blocks) {
      if (block != kInvalidBlock) {
        Decref(block);
      }
    }
  }
  snapshots_.erase(it);
  return Status::Ok();
}

const CowFs::Snapshot* CowFs::GetSnapshot(SnapshotId id) const {
  auto it = snapshots_.find(id);
  return it == snapshots_.end() ? nullptr : &it->second;
}

uint64_t CowFs::ExtentCount(InodeNo ino) const {
  uint64_t extents = 0;
  BlockNo prev = kInvalidBlock;
  for (BlockNo block : MapOf(ino)) {
    if (block == kInvalidBlock) {
      prev = kInvalidBlock;
      continue;
    }
    if (prev == kInvalidBlock || block != prev + 1) {
      ++extents;
    }
    prev = block;
  }
  return extents;
}

void CowFs::DefragFile(InodeNo ino, IoClass io_class,
                       std::function<void(const DefragResult&)> cb) {
  const Inode* inode = ns_.Get(ino);
  auto result = std::make_shared<DefragResult>();
  auto finish = [this, cb = std::move(cb), result](Status status) {
    result->status = std::move(status);
    loop_->ScheduleAfter(0, [cb, result] { cb(*result); });
  };
  if (inode == nullptr || inode->is_dir()) {
    finish(Status(StatusCode::kNotFound, "bad inode for defrag"));
    return;
  }
  uint64_t npages = inode->PageCount();
  if (npages == 0) {
    finish(Status::Ok());
    return;
  }
  result->pages = npages;
  result->extents_before = ExtentCount(ino);

  // Phase 1: bring the whole file into memory (cache hits are free).
  Read(ino, 0, inode->size, io_class, [this, ino, npages, io_class, result,
                                       finish](const FsIoResult& read) {
    if (!read.status.ok()) {
      finish(read.status);
      return;
    }
    result->pages_from_cache = read.pages_from_cache;
    result->pages_read_disk = read.pages_from_disk;

    // Count pages the workload had already dirtied: their writeback was due
    // anyway, so the paper counts them as saved write I/O (§6.2).
    for (PageIdx p = 0; p < npages; ++p) {
      const CachedPage* page = cache_.Peek(ino, p);
      if (page != nullptr && page->dirty) {
        ++result->dirty_pages;
      }
    }

    // Phase 2: take the destination next-fit from the cursor, as few runs
    // as free space allows (the cursor stays where it is), and move the
    // mapping onto it. When the blocks run out, the runs taken go back.
    std::vector<BlockRun> runs;
    BlockNo hint = alloc_cursor_;
    for (uint64_t taken = 0; taken < npages;) {
      std::optional<BlockRun> run = TakeRun(hint, npages - taken);
      if (!run.has_value()) {
        for (const BlockRun& r : runs) {
          for (BlockNo b = r.start; b < r.start + r.length; ++b) {
            MarkFree(b);
          }
        }
        finish(Status(StatusCode::kNoSpace, "not enough free blocks"));
        return;
      }
      runs.push_back(*run);
      taken += run->length;
      hint = run->start + run->length;
    }
    std::vector<uint64_t> tokens(npages, 0);
    PageIdx idx = 0;
    for (const BlockRun& run : runs) {
      for (BlockNo b = run.start; b < run.start + run.length; ++b, ++idx) {
        const BlockNo old_block = BlockOf(ino, idx);
        const CachedPage* page = cache_.Peek(ino, idx);
        // The read above cached every page; a concurrent eviction could drop
        // one, in which case we fall back to its on-disk content.
        tokens[idx] = (page != nullptr)              ? page->data
                      : (old_block != kInvalidBlock) ? disk_data_[old_block]
                                                     : 0;
        refcount_[b] = 1;
        SetMapping(ino, idx, b);
        if (old_block != kInvalidBlock) {
          Decref(old_block);
        }
      }
    }

    // Phase 3: write the new extent(s) as one transaction.
    auto outstanding = std::make_shared<uint64_t>(runs.size());
    uint64_t first_page = 0;
    for (const BlockRun& run : runs) {
      IoRequest req;
      req.block = run.start;
      req.count = static_cast<uint32_t>(run.length);
      req.dir = IoDir::kWrite;
      req.io_class = io_class;
      req.done = [this, ino, run, first_page, tokens, result, outstanding,
                  finish](const IoResult&) {
        for (uint64_t k = 0; k < run.length; ++k) {
          PageIdx p = first_page + k;
          OnBlockFlushed(run.start + k, tokens[p]);
          ++result->pages_written;
          const CachedPage* page = cache_.Peek(ino, p);
          if (page != nullptr && page->dirty && page->data == tokens[p]) {
            cache_.MarkClean(ino, p);
          }
        }
        if (--*outstanding == 0) {
          result->extents_after = ExtentCount(ino);
          finish(Status::Ok());
        }
      };
      first_page += run.length;
      device_->Submit(std::move(req));
    }
  });
}

Status CowFs::PopulatePages(InodeNo ino, uint64_t npages, double break_prob, Rng* rng) {
  if (npages == 0) {
    return Status::Ok();
  }
  // Nothing below maps another inode, so the reference stays good.
  std::vector<BlockNo>& blocks = MapFor(ino);
  assert(blocks.empty());
  blocks.reserve(npages);
  // The aged random jumps must not leak into subsequent allocations, or
  // every file populated afterwards would inherit the fragmentation.
  BlockNo saved_cursor = alloc_cursor_;
  Status status;
  // Pages are taken next-fit from the cursor, which sits just past the
  // previous page's block (the hint AllocateForWrite gives a fresh page):
  // a plain file in runs as long as the free blocks allow. An aged file
  // draws before each page whether the cursor jumps, so it takes its pages
  // one at a time.
  for (PageIdx p = 0; p < npages;) {
    if (rng != nullptr && rng->Chance(break_prob)) {
      alloc_cursor_ = rng->Uniform(capacity_blocks());
    }
    std::optional<BlockRun> run = TakeRun(alloc_cursor_, rng != nullptr ? 1 : npages - p);
    if (!run.has_value()) {
      status = Status(StatusCode::kNoSpace, "cowfs full");
      break;
    }
    const RmapEntry last_owner = OwnerEntry(ino, p + run->length - 1);
    for (BlockNo b = run->start; b < run->start + run->length; ++b, ++p) {
      refcount_[b] = 1;
      blocks.push_back(b);
      rmap_[b] = RmapEntry{last_owner.ino, static_cast<uint32_t>(p)};
      // The content goes straight to disk, mirror and all (OnBlockFlushed).
      StoreToken(b, NextToken());
      if (!mirror_diverged_.empty()) {
        mirror_diverged_.erase(b);
      }
    }
    alloc_cursor_ = run->start + run->length;
  }
  if (rng != nullptr) {
    alloc_cursor_ = saved_cursor;
  }
  return status;
}

void CowFs::SerializeFsState(ByteWriter* w) const {
  std::vector<const Snapshot*> snaps;
  snaps.reserve(snapshots_.size());
  for (const auto& [id, snap] : snapshots_) {
    snaps.push_back(&snap);
  }
  std::sort(snaps.begin(), snaps.end(),
            [](const Snapshot* a, const Snapshot* b) { return a->id < b->id; });
  w->U64(snaps.size());
  for (const Snapshot* snap : snaps) {
    w->U64(snap->id);
    w->U64(snap->files.size());
    for (const auto& [ino, file] : snap->files) {  // std::map: ino-ordered
      w->U64(ino);
      w->U64(file.size);
      w->U64(file.blocks.size());
      for (BlockNo block : file.blocks) {
        w->U64(block);
      }
    }
  }
  w->U64(next_snapshot_id_);
}

Status CowFs::RestoreFsState(ByteReader* r, MountReport* report,
                             std::vector<BlockNo>* /*read_back*/) {
  uint64_t snap_count = r->U64();
  for (uint64_t k = 0; k < snap_count && r->ok(); ++k) {
    Snapshot snap;
    snap.id = r->U64();
    uint64_t file_count = r->U64();
    for (uint64_t j = 0; j < file_count && r->ok(); ++j) {
      InodeNo ino = r->U64();
      SnapshotFile file;
      file.size = r->U64();
      uint64_t nblocks = r->U64();
      for (uint64_t b = 0; b < nblocks; ++b) {
        BlockNo block = r->U64();
        if (block != kInvalidBlock && block >= capacity_blocks()) {
          return Status(StatusCode::kCorruption, "snapshot block out of range");
        }
        file.blocks.push_back(block);
      }
      snap.files.emplace(ino, std::move(file));
    }
    snapshots_.emplace(snap.id, std::move(snap));
  }
  next_snapshot_id_ = r->U64();
  if (!r->ok()) {
    return Status(StatusCode::kCorruption, "truncated superblock");
  }

  // Rebuild refcounts and the in-use bitmap from the restored trees.
  refcount_ = CountReferences();
  for (BlockNo b = 0; b < capacity_blocks(); ++b) {
    if (refcount_[b] == 0) {
      continue;
    }
    MarkInUse(b);
    LoadBlock(b, report);
  }
  // The DUP mirror is not persisted separately. Mount fills a fresh store,
  // which has no diverged mirror, so every mirror is resilvered from the
  // primary LoadBlock just read.
  assert(mirror_diverged_.empty());
  // Pin the restored tree until the next commit. Rollback recovery reads
  // only the superblock area, so nothing goes to `read_back`.
  PinAllInUse();
  return Status::Ok();
}

std::vector<uint32_t> CowFs::CountReferences() const {
  std::vector<uint32_t> refs(capacity_blocks(), 0);
  ForEachReference([&refs](BlockNo block) { ++refs[block]; });
  return refs;
}

void CowFs::CheckFsState(FsckReport* report) const {
  auto compare = [this, report](const auto& want) {
    for (BlockNo b = 0; b < capacity_blocks(); ++b) {
      if (want[b] != refcount_[b] || BlockInUse(b) != (want[b] > 0)) {
        ++report->structural_errors;
        report->NoteBad(b);
      }
    }
  };
  // A block's references are at most one plus the snapshot count, so a byte
  // per block holds them unless 255 or more snapshots share a block (or the
  // maps are broken); only then does a byte saturate and the 4 B count run.
  std::vector<uint8_t> narrow(capacity_blocks(), 0);
  bool saturated = false;
  ForEachReference([&narrow, &saturated](BlockNo block) {
    if (narrow[block] == UINT8_MAX) {
      saturated = true;
    } else {
      ++narrow[block];
    }
  });
  if (saturated) {
    narrow = {};
    compare(CountReferences());
  } else {
    compare(narrow);
  }
}

}  // namespace duet
