#include "src/logfs/logfs.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>

#include "src/fs/meta_codec.h"

namespace duet {

LogFs::LogFs(EventLoop* loop, BlockDevice* device, uint64_t cache_pages,
             uint32_t segment_blocks, WritebackParams wb_params)
    : FileSystem(loop, device, cache_pages, wb_params, "logfs.ckpt"),
      segment_blocks_(segment_blocks) {
  assert(segment_blocks_ > 0);
  sit_.resize((device->capacity_blocks() + segment_blocks_ - 1) / segment_blocks_);
}

uint64_t LogFs::free_segments() const {
  uint64_t free = 0;
  for (SegmentNo s = 0; s < sit_.size(); ++s) {
    free += Reusable(s);
  }
  return free;
}

bool LogFs::Reusable(SegmentNo seg) const {
  if (seg == open_segment_ || sit_[seg].valid != 0) {
    return false;
  }
  // A fully-invalidated segment that still holds pinned blocks is
  // "prefree": recovery depends on its content, so it becomes reusable only
  // after the next checkpoint drops the pins.
  BlockNo start = seg * segment_blocks_;
  BlockNo end = std::min<BlockNo>(start + segment_blocks_, capacity_blocks());
  return pinned().CountRange(start, end) == 0;
}

std::vector<BlockNo> LogFs::ValidBlocksOf(SegmentNo seg) const {
  std::vector<BlockNo> blocks;
  BlockNo start = seg * segment_blocks_;
  BlockNo end = std::min<BlockNo>(start + segment_blocks_, capacity_blocks());
  for (BlockNo b = start; b < end; ++b) {
    if (BlockInUse(b)) {
      blocks.push_back(b);
    }
  }
  return blocks;
}

uint64_t LogFs::CachedValidBlocksOf(SegmentNo seg) const {
  uint64_t cached = 0;
  for (BlockNo b : ValidBlocksOf(seg)) {
    Result<BlockOwner> owner = Rmap(b);
    if (owner.ok() && cache_.Contains(owner->ino, owner->idx)) {
      ++cached;
    }
  }
  return cached;
}

std::optional<SegmentNo> LogFs::FindFreeSegment() {
  for (SegmentNo s = 0; s < sit_.size(); ++s) {
    if (Reusable(s)) {
      // Reset a fully-invalidated segment before reuse.
      sit_[s].written = 0;
      return s;
    }
  }
  return std::nullopt;
}

Result<BlockNo> LogFs::LogAppend() {
  // The open segment is full at its size, or at the device end when it is
  // the truncated last segment.
  if (sit_[open_segment_].written >= segment_blocks_ ||
      open_segment_ * segment_blocks_ + sit_[open_segment_].written >=
          capacity_blocks()) {
    std::optional<SegmentNo> next = FindFreeSegment();
    if (next.has_value()) {
      open_segment_ = *next;
    } else {
      // Out of clean segments: overwrite an invalid slot inside some
      // already-written segment (the paper's slow scattered-write mode,
      // §6.2 Garbage collection). The slot is the lowest allocatable block
      // below its segment's write frontier; a block past the frontier sends
      // the search on to the next segment.
      std::optional<BlockNo> b = NextAllocatable(0);
      while (b.has_value()) {
        SegmentNo s = SegmentOf(*b);
        if (*b - s * segment_blocks_ < sit_[s].written) {
          ++scattered_writes_;
          MarkInUse(*b);
          ++sit_[s].valid;
          sit_[s].mtime = loop_->now();
          if (image_ != nullptr) {
            Pin(*b);
          }
          return *b;
        }
        b = NextAllocatable((s + 1) * segment_blocks_);
      }
      return Status(StatusCode::kNoSpace, "logfs full");
    }
  }
  SegmentInfo& info = sit_[open_segment_];
  BlockNo block = open_segment_ * segment_blocks_ + info.written;
  assert(block < capacity_blocks());
  ++info.written;
  ++info.valid;
  info.mtime = loop_->now();
  MarkInUse(block);
  if (image_ != nullptr) {
    Pin(block);
  }
  return block;
}

void LogFs::Invalidate(BlockNo block) {
  if (!BlockInUse(block)) {
    return;
  }
  SegmentNo seg = SegmentOf(block);
  assert(sit_[seg].valid > 0);
  --sit_[seg].valid;
  sit_[seg].mtime = loop_->now();
  MarkFree(block);
}

Result<BlockNo> LogFs::AllocateForWrite(InodeNo ino, PageIdx idx, BlockNo old_block) {
  Result<BlockNo> fresh = LogAppend();
  if (!fresh.ok()) {
    return fresh;
  }
  if (old_block != kInvalidBlock) {
    Invalidate(old_block);
  }
  SetMapping(ino, idx, *fresh);
  return fresh;
}

void LogFs::FreeFileBlocks(InodeNo ino) {
  for (BlockNo block : MapOf(ino)) {
    if (block != kInvalidBlock) {
      Invalidate(block);
    }
  }
}

std::optional<SegmentNo> LogFs::SelectVictim(
    SegmentNo window_start, uint64_t window,
    const std::function<double(SegmentNo, const SegmentInfo&)>& cost) const {
  std::optional<SegmentNo> best;
  double best_cost = std::numeric_limits<double>::infinity();
  uint64_t n = std::min<uint64_t>(window, sit_.size());
  for (uint64_t i = 0; i < n; ++i) {
    SegmentNo s = (window_start + i) % sit_.size();
    const SegmentInfo& info = sit_[s];
    if (s == open_segment_ || info.written == 0) {
      continue;  // open log head or never-written segment
    }
    if (info.valid >= info.written) {
      continue;  // nothing invalid to reclaim
    }
    double c = cost(s, info);
    if (c < best_cost) {
      best_cost = c;
      best = s;
    }
  }
  return best;
}

void LogFs::CleanSegment(SegmentNo seg, IoClass io_class,
                         std::function<void(const CleanResult&)> cb) {
  auto result = std::make_shared<CleanResult>();
  result->segment = seg;
  SimTime started = loop_->now();
  auto finish = [this, cb = std::move(cb), result, started](Status status) {
    // Keep an error recorded during the read phase (e.g. a transient kBusy)
    // over the move phase's final Ok.
    if (result->status.ok()) {
      result->status = std::move(status);
    }
    result->duration = loop_->now() - started;
    loop_->ScheduleAfter(0, [cb, result] { cb(*result); });
  };

  struct Victim {
    BlockNo block;
    InodeNo ino;
    PageIdx idx;
  };
  std::vector<Victim> victims;
  std::vector<Victim> to_read;
  for (BlockNo b : ValidBlocksOf(seg)) {
    Result<BlockOwner> owner = Rmap(b);
    if (!owner.ok()) {
      // A valid block must have an owner; treat as corruption.
      finish(Status(StatusCode::kCorruption, "valid block without owner"));
      return;
    }
    Victim v{b, owner->ino, owner->idx};
    victims.push_back(v);
    if (cache_.Contains(v.ino, v.idx)) {
      ++result->blocks_from_cache;
    } else {
      to_read.push_back(v);
    }
  }
  if (victims.empty()) {
    finish(Status::Ok());
    return;
  }

  // Blocks whose read failed or whose checksum did not verify. The move
  // phase leaves them in place: re-appending a bad token would give it a
  // fresh valid checksum, laundering the corruption.
  auto bad = std::make_shared<std::unordered_set<BlockNo>>();

  // Phase 2 (after reads): re-append every still-valid block to the log and
  // leave its page dirty for asynchronous writeback.
  auto move_phase = [this, victims = std::move(victims), bad, result, finish] {
    for (const Victim& v : victims) {
      if (!BlockInUse(v.block)) {
        continue;  // invalidated while we were reading (foreground write)
      }
      if (bad->count(v.block) != 0) {
        continue;  // unreadable or corrupt; not safe to move
      }
      Result<BlockOwner> owner = Rmap(v.block);
      if (!owner.ok() || owner->ino != v.ino || owner->idx != v.idx) {
        continue;  // remapped under us
      }
      const CachedPage* page = cache_.Peek(v.ino, v.idx);
      uint64_t token = (page != nullptr) ? page->data : disk_data_[v.block];
      Result<BlockNo> fresh = LogAppend();
      if (!fresh.ok()) {
        finish(fresh.status());
        return;
      }
      SetMapping(v.ino, v.idx, *fresh);
      Invalidate(v.block);
      if (!cache_.MarkDirty(v.ino, v.idx, token)) {
        cache_.Insert(v.ino, v.idx, token, /*dirty=*/true);
      }
      ++result->blocks_moved;
    }
    writeback_.MaybeKick();
    finish(Status::Ok());
  };

  if (to_read.empty()) {
    move_phase();
    return;
  }

  // Phase 1: reads of uncached victim blocks, coalesced (ValidBlocksOf is
  // ascending, and blocks within one segment are nearly contiguous). Pages
  // enter the cache clean, emitting Added events for any interested Duet
  // session.
  result->device_ops = SubmitRuns(
      std::move(to_read), IoDir::kRead, io_class, [](const Victim& v) { return v.block; },
      [this, bad, result](const IoResult& io, std::span<const Victim> run) {
        if (io.status.code() == StatusCode::kBusy) {
          // Transient whole-request failure: nothing transferred; leave the
          // run's blocks unmoved and surface the retryable status.
          result->status = io.status;
          for (const Victim& v : run) {
            bad->insert(v.block);
          }
          return;
        }
        for (const Victim& v : run) {
          ++result->blocks_read_disk;
          Status status = ReadOutcome(io, v.block);
          if (!status.ok()) {
            if (status.code() == StatusCode::kCorruption) {
              ++result->checksum_errors;
            } else {
              ++result->read_errors;
            }
            bad->insert(v.block);
            continue;
          }
          if (!cache_.Contains(v.ino, v.idx)) {
            cache_.Insert(v.ino, v.idx, disk_data_[v.block], /*dirty=*/false);
          }
        }
      },
      std::move(move_phase));
}

void LogFs::SerializeFsState(ByteWriter* w) const {
  // Replay threshold: every image record committed after this sequence
  // number belongs to the log tail and is rolled forward at mount.
  w->U64(image_->commit_seq());
  w->U64(open_segment_);
  w->U64(sit_.size());
  for (const SegmentInfo& info : sit_) {
    w->U32(info.written);
    w->U64(info.mtime);
  }
}

Status LogFs::RestoreFsState(ByteReader* r, MountReport* report,
                             std::vector<BlockNo>* read_back) {
  uint64_t ckpt_seq = r->U64();
  open_segment_ = r->U64();
  uint64_t nsegs = r->U64();
  if (!r->ok() || nsegs != sit_.size() || open_segment_ >= nsegs) {
    return Status(StatusCode::kCorruption, "checkpoint geometry mismatch");
  }
  for (SegmentInfo& info : sit_) {
    info.written = r->U32();
    info.mtime = r->U64();
    info.valid = 0;
  }
  if (!r->ok()) {
    return Status(StatusCode::kCorruption, "truncated checkpoint");
  }

  // Rebuild block-level liveness and content from the restored extent maps.
  ForEachFileMap([this, report](InodeNo, std::span<const BlockNo> blocks) {
    for (BlockNo block : blocks) {
      if (block == kInvalidBlock) {
        continue;
      }
      MarkInUse(block);
      ++sit_[SegmentOf(block)].valid;
      Pin(block);
      LoadBlock(block, report);
    }
  });
  ReplayImageRecords(ckpt_seq, report, read_back);
  return Status::Ok();
}

void LogFs::ReplayImageRecords(uint64_t ckpt_seq, MountReport* report,
                               std::vector<BlockNo>* replayed) {
  // Roll-forward: every image record committed after the checkpoint is a log
  // record flushed (and possibly fsync-acknowledged) before the crash.
  struct TailRecord {
    uint64_t seq;
    BlockNo block;
    uint64_t token;
    uint32_t csum;
    InodeNo ino;
    PageIdx idx;
  };
  std::vector<TailRecord> tail;
  image_->ForEachPresent([&](BlockNo block, const DurableImage::Record& rec) {
    if (rec.seq > ckpt_seq) {
      tail.push_back({rec.seq, block, rec.token, rec.csum, rec.ino, rec.idx});
    }
  });
  std::sort(tail.begin(), tail.end(),
            [](const TailRecord& a, const TailRecord& b) { return a.seq < b.seq; });
  for (const TailRecord& rec : tail) {
    if (TokenChecksum(rec.token) != rec.csum) {
      ++report->blocks_discarded;  // torn by a mid-flush crash
      continue;
    }
    const Inode* inode = ns_.Get(rec.ino);
    if (inode == nullptr || inode->is_dir()) {
      // Orphan: the owning file was created after the checkpoint, so the
      // namespace has no inode to attach the page to. (A file deleted after
      // the checkpoint is resurrected instead — without a delete journal,
      // unlinks become durable only at the next checkpoint.)
      ++report->blocks_discarded;
      continue;
    }
    if (BlockInUse(rec.block)) {
      // Pinning makes reuse of a checkpoint-referenced block impossible, so
      // this cannot happen; discard defensively rather than steal the block.
      ++report->blocks_discarded;
      continue;
    }
    Result<BlockNo> old = Bmap(rec.ino, rec.idx);
    if (old.ok()) {
      Invalidate(*old);  // the replayed record supersedes the older location
    }
    SetMapping(rec.ino, rec.idx, rec.block);
    MarkInUse(rec.block);
    SegmentNo seg = SegmentOf(rec.block);
    ++sit_[seg].valid;
    uint32_t offset = static_cast<uint32_t>(rec.block - seg * segment_blocks_);
    sit_[seg].written = std::max(sit_[seg].written, offset + 1);
    sit_[seg].mtime = loop_->now();
    Pin(rec.block);
    // The record's checksum matched its token above, so it is the token's own.
    StoreToken(rec.block, rec.token);
    // Page granularity is all the log records carry; a replayed tail page
    // extends the file to at least its end.
    Inode* mut = ns_.GetMutable(rec.ino);
    mut->size = std::max<uint64_t>(mut->size, (rec.idx + 1) * kPageSize);
    ++report->blocks_replayed;
    replayed->push_back(rec.block);
  }
}

void LogFs::CheckFsState(FsckReport* report) const {
  // Every extent map of a live file references only valid blocks.
  ForEachFileMap([this, report](InodeNo ino, std::span<const BlockNo> blocks) {
    const Inode* inode = ns_.Get(ino);
    if (inode == nullptr || inode->is_dir()) {
      return;  // counted by CheckFileMappings
    }
    for (BlockNo block : blocks) {
      if (block != kInvalidBlock && !BlockInUse(block)) {
        ++report->structural_errors;
        report->NoteBad(block);
      }
    }
  });
  // Segment table vs block-level liveness, and log-head discipline: valid
  // blocks only below each segment's write frontier.
  for (SegmentNo s = 0; s < sit_.size(); ++s) {
    BlockNo start = s * segment_blocks_;
    BlockNo end = std::min<BlockNo>(start + segment_blocks_, capacity_blocks());
    if (sit_[s].valid != in_use().CountRange(start, end) ||
        sit_[s].written > segment_blocks_) {
      ++report->structural_errors;
      report->NoteBad(start);
    }
    for (BlockNo b = start; b < end; ++b) {
      if (!BlockInUse(b)) {
        continue;
      }
      if (b - start >= sit_[s].written) {
        ++report->structural_errors;  // valid block beyond the write frontier
        report->NoteBad(b);
      }
      // logfs's reverse map is exact: every valid block has exactly one
      // owning page, and the forward map agrees.
      Result<BlockOwner> owner = Rmap(b);
      if (!owner.ok()) {
        ++report->structural_errors;
        report->NoteBad(b);
      } else {
        Result<BlockNo> fwd = Bmap(owner->ino, owner->idx);
        if (!fwd.ok() || *fwd != b) {
          ++report->structural_errors;
          report->NoteBad(b);
        }
      }
    }
  }
}

double GcCostBaseline(const SegmentInfo& info, uint32_t segment_blocks, SimTime now) {
  // F2fs-style cost-benefit: cost grows with the data to move and shrinks
  // with age. u = utilization of the segment; cost ∝ 2u / ((1-u) * age).
  double u = static_cast<double>(info.valid) / static_cast<double>(segment_blocks);
  if (u >= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  double age_s = ToSeconds(now > info.mtime ? now - info.mtime : 0) + 1.0;
  return (2.0 * u) / ((1.0 - u) * age_s);
}

double GcCostDuet(const SegmentInfo& info, uint32_t segment_blocks, SimTime now,
                  uint64_t cached_blocks) {
  // §5.4: moved blocks drop from valid to valid - cached/2 (reads and writes
  // weighed equally; cached blocks save the read half).
  double moved = static_cast<double>(info.valid) -
                 static_cast<double>(cached_blocks) / 2.0;
  if (moved < 0) {
    moved = 0;
  }
  double u = moved / static_cast<double>(segment_blocks);
  double u_real = static_cast<double>(info.valid) / static_cast<double>(segment_blocks);
  if (u_real >= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  double age_s = ToSeconds(now > info.mtime ? now - info.mtime : 0) + 1.0;
  return (2.0 * u) / ((1.0 - u_real) * age_s);
}

}  // namespace duet
