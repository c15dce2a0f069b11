#include "src/tasks/scrubber.h"

#include <algorithm>
#include <cassert>

namespace duet {

Scrubber::Scrubber(CowFs* fs, DuetCore* duet, ScrubberConfig config)
    : fs_(fs),
      duet_(duet),
      config_(config),
      run_("scrub", TaskTag::kScrub, &fs->loop(), duet) {
  assert(fs_ != nullptr);
  assert(!config_.use_duet || duet_ != nullptr);
}

Scrubber::~Scrubber() { Stop(); }

void Scrubber::Start(std::function<void()> on_finish) {
  run_.Begin(std::move(on_finish));
  run_.stats().work_total = fs_->allocated_blocks();
  cursor_ = 0;
  resume_start_ = 0;
  // Resume an interrupted pass where it left off (btrfs scrub's progress
  // checkpoint). A pass that finished cleanly cleared the cursor.
  std::optional<std::vector<uint64_t>> saved = run_.SavedCursor();
  if (saved.has_value() && (*saved)[0] < fs_->capacity_blocks()) {
    cursor_ = (*saved)[0];
    resume_start_ = cursor_;
  }
  accounting_final_ = false;
  if (config_.use_duet) {
    run_.Register(duet_->RegisterBlockTask(kDuetPageAdded | kDuetPageDirtied));
    run_.Poll([this] {
      DrainDuetEvents();
      // The whole device may have been verified by other parties' reads
      // even if the scan's own idle-priority I/O is starved.
      if (duet_->DoneCount(run_.sid()) < run_.stats().work_total) {
        return true;
      }
      Finish();
      return false;
    });
  }
  ProcessNextChunk();
}

void Scrubber::Stop() {
  run_.CancelTimer();
  FinalizeAccounting();
  run_.Stop();
}

void Scrubber::FinalizeAccounting() {
  if (run_.sid() == kInvalidSession || accounting_final_) {
    return;
  }
  accounting_final_ = true;
  // Blocks marked done that the scan did not read were verified for free by
  // other parties' reads — the I/O Duet saved. Done bits also measure how
  // much scrubbing work is complete, whether or not the scan pass finished.
  TaskStats& stats = run_.stats();
  uint64_t done = duet_->DoneCount(run_.sid());
  uint64_t by_io = stats.io_read_pages;
  stats.saved_read_pages = done > by_io ? done - by_io : 0;
  stats.work_done = std::min(std::max(done, by_io), stats.work_total);
}

void Scrubber::Finish() {
  run_.CancelTimer();
  if (config_.use_duet) {
    FinalizeAccounting();
  } else {
    run_.stats().work_done = run_.stats().io_read_pages;
  }
  run_.Finish();
}

void Scrubber::DrainDuetEvents() {
  run_.Drain([this](const DuetItem& item) {
    if (item.has(kDuetPageDirtied)) {
      // Content changed: the (possibly relocated) block needs re-verifying.
      (void)duet_->UnsetDone(run_.sid(), item.id);
      return;
    }
    if (item.has(kDuetPageAdded)) {
      // The read path verified this block's checksum; mark it scrubbed.
      if (!duet_->CheckDone(run_.sid(), item.id)) {
        (void)duet_->SetDone(run_.sid(), item.id);
      }
    }
  });
}

void Scrubber::ProcessNextChunk() {
  if (!run_.running()) {
    return;
  }
  if (config_.use_duet) {
    DrainDuetEvents();
  }
  // Find the next block that still needs scrubbing. Blocks already marked
  // done were verified by someone else's read; the scan skips them without
  // I/O (accounted in FinalizeAccounting).
  std::optional<BlockNo> next = fs_->NextBlockInUse(cursor_);
  while (next.has_value() && config_.use_duet && duet_->CheckDone(run_.sid(), *next)) {
    next = fs_->NextBlockInUse(*next + 1);
  }
  if (!next.has_value()) {
    Finish();
    return;
  }
  // Scrub a chunk starting at `next`. Done blocks end the chunk only when a
  // long verified run follows: skipping it saves more transfer time than the
  // repositioning it costs, while short verified runs are read through to
  // keep the scan's requests large and sequential.
  BlockNo start = *next;
  uint32_t count = 0;
  BlockNo b = start;
  while (count < kChunkBlocks && b < fs_->capacity_blocks()) {
    if (config_.use_duet && duet_->CheckDone(run_.sid(), b)) {
      BlockNo run_end = b;
      while (run_end < fs_->capacity_blocks() &&
             run_end - b < kSkipRunBlocks &&
             duet_->CheckDone(run_.sid(), run_end)) {
        ++run_end;
      }
      if (run_end - b >= kSkipRunBlocks) {
        break;
      }
      count += static_cast<uint32_t>(run_end - b);
      b = run_end;
      continue;
    }
    ++count;
    ++b;
  }
  const uint64_t epoch = run_.epoch();
  run_.ChunkStarted(start, count);
  chunk_verified_ = 0;
  // Scrubbed: the read verified the run. Marked done before its pages enter
  // the cache, the scan's own reads report nothing to its session; counted
  // as read when marked, FinalizeAccounting never counts a block the scan
  // read as saved.
  auto on_verified = [this, epoch](BlockNo first, uint32_t n) {
    if (!run_.live(epoch)) {
      return;
    }
    run_.stats().io_read_pages += n;
    chunk_verified_ += n;
    if (config_.use_duet) {
      (void)duet_->SetDone(run_.sid(), first, n);
    }
  };
  // Scrub reads populate the page cache, so concurrent tasks can use the
  // same pass (§6.3: scrub and backup accesses benefit each other).
  fs_->ReadRawBlocks(start, count, kIoClass, std::move(on_verified),
                     [this, start, count, epoch](const RawReadResult& result) {
                       if (!run_.live(epoch)) {
                         return;
                       }
                       // Read but not verified: bad, or freed in flight.
                       run_.stats().io_read_pages += result.blocks_read - chunk_verified_;
                       if (IsTransient(result.status)) {
                         if (chunk_retry_ < kMaxRetries) {
                           // Transient (busy window): retry the same chunk
                           // after an exponentially growing backoff.
                           SimDuration backoff =
                               kRetryBackoff * (SimDuration{1} << chunk_retry_);
                           ++chunk_retry_;
                           ++transient_retries_;
                           run_.Retry(start, chunk_retry_);
                           fs_->loop().ScheduleAfter(backoff, [this, epoch] {
                             if (run_.live(epoch)) {
                               ProcessNextChunk();
                             }
                           });
                           return;
                         }
                         // Retry budget exhausted: skip the chunk this pass.
                         chunk_retry_ = 0;
                         cursor_ = start + count;
                         run_.SaveCursor({cursor_});
                         ProcessNextChunk();
                         return;
                       }
                       chunk_retry_ = 0;
                       checksum_errors_ += result.checksum_errors;
                       read_errors_ += result.read_errors;
                       run_.stats().work_done += result.blocks_read;
                       cursor_ = start + count;
                       run_.SaveCursor({cursor_});
                       run_.ChunkFinished(start, count);
                       if (!result.bad_blocks.empty()) {
                         // Rewrite each bad block from an intact copy (cached
                         // page or the cowfs DUP mirror); blocks with no
                         // intact copy are reported unrecoverable. Either
                         // way the scan is done with them.
                         fs_->RepairBlocks(
                             result.bad_blocks, kIoClass,
                             [this, epoch, bad = result.bad_blocks](const CowFs::RepairResult& r) {
                               blocks_repaired_ += r.repaired();
                               blocks_unrecoverable_ += r.unrecoverable;
                               run_.Repairs(r.repaired(), r.unrecoverable);
                               run_.stats().io_read_pages += r.device_reads;
                               run_.stats().io_write_pages += r.device_writes;
                               if (!run_.live(epoch)) {
                                 return;
                               }
                               if (config_.use_duet) {
                                 for (BlockNo block : bad) {
                                   if (fs_->BlockInUse(block)) {
                                     (void)duet_->SetDone(run_.sid(), block);
                                   }
                                 }
                               }
                               ProcessNextChunk();
                             });
                         return;
                       }
                       ProcessNextChunk();
                     });
}

}  // namespace duet
