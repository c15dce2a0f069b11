#include "src/tasks/incremental_backup.h"

#include <algorithm>
#include <cassert>

namespace duet {

IncrementalBackup::IncrementalBackup(CowFs* fs, DuetCore* duet,
                                     IncrementalBackupConfig config)
    : fs_(fs),
      duet_(duet),
      config_(config),
      run_("inc_backup", TaskTag::kIncBackup, &fs->loop(), duet) {
  assert(fs_ != nullptr);
  assert(!config_.use_duet || duet_ != nullptr);
}

IncrementalBackup::~IncrementalBackup() { Stop(); }

void IncrementalBackup::BeginEpoch() {
  run_.Begin();
  captured_.clear();
  fs_->CreateSnapshotAsync([this](Result<SnapshotId> snap) {
    assert(snap.ok());
    base_snapshot_ = *snap;
    if (config_.use_duet) {
      // Modified-state notifications: an item arrives when a page's dirty
      // status changes; ¬Modified (Flushed polarity) means the cached page
      // now matches the on-disk block — safe to capture.
      run_.Register(duet_->RegisterBlockTask(kDuetPageModified));
      run_.Poll(config_.fetch_interval, [this] {
        DrainDuetEvents();
        return true;
      });
    }
  });
}

void IncrementalBackup::DrainDuetEvents() {
  run_.Drain([this](const DuetItem& item) {
    if (!item.has(kDuetPageFlushed)) {
      return;  // page became dirty: content still in flux
    }
    Result<FileSystem::BlockOwner> owner = fs_->Rmap(item.id);
    if (!owner.ok()) {
      return;
    }
    const CachedPage* page = fs_->cache().Peek(owner->ino, owner->idx);
    if (page == nullptr || page->dirty) {
      return;  // hint went stale
    }
    // Copy the just-flushed content from memory — the read the paper's §1
    // example saves.
    captured_[PageKey{owner->ino, owner->idx}] = page->data;
    ++run_.stats().opportunistic_units;
  }, config_.fetch_batch);
}

void IncrementalBackup::EndEpoch(std::function<void()> on_finish) {
  assert(run_.running());
  run_.set_on_finish(std::move(on_finish));
  // Flush everything so the end snapshot and the captured pages agree with
  // the on-disk state, then cut the snapshot and catch up on the diff.
  fs_->CreateSnapshotAsync([this](Result<SnapshotId> snap) {
    assert(snap.ok());
    end_snapshot_ = *snap;
    if (run_.sid() != kInvalidSession) {
      DrainDuetEvents();  // final flush events from the sync above
      run_.CancelTimer();
      run_.Deregister();
    }
    // Build the diff worklist.
    const CowFs::Snapshot* base = fs_->GetSnapshot(base_snapshot_);
    const CowFs::Snapshot* end = fs_->GetSnapshot(end_snapshot_);
    pending_reads_.clear();
    pending_cursor_ = 0;
    TaskStats& stats = run_.stats();
    for (const auto& [ino, end_file] : end->files) {
      const CowFs::SnapshotFile* base_file = nullptr;
      auto base_it = base->files.find(ino);
      if (base_it != base->files.end()) {
        base_file = &base_it->second;
      }
      for (PageIdx p = 0; p < end_file.blocks.size(); ++p) {
        BlockNo end_block = end_file.blocks[p];
        if (end_block == kInvalidBlock) {
          continue;
        }
        bool changed = base_file == nullptr || p >= base_file->blocks.size() ||
                       base_file->blocks[p] != end_block;
        if (!changed) {
          continue;
        }
        ++stats.work_total;
        PageKey key{ino, p};
        auto captured = captured_.find(key);
        if (captured != captured_.end() &&
            captured->second == fs_->DiskToken(end_block)) {
          // Already captured from memory: read saved.
          ++stats.saved_read_pages;
          ++stats.work_done;
          continue;
        }
        pending_reads_.emplace_back(key, end_block);
      }
    }
    ProcessDiff();
  });
}

void IncrementalBackup::ProcessDiff() {
  if (!run_.running()) {
    return;
  }
  if (pending_cursor_ >= pending_reads_.size()) {
    run_.Finish();
    return;
  }
  size_t end = std::min(pending_reads_.size(),
                        pending_cursor_ + config_.chunk_pages);
  std::vector<BlockNo> blocks;
  blocks.reserve(end - pending_cursor_);
  for (size_t i = pending_cursor_; i < end; ++i) {
    blocks.push_back(pending_reads_[i].second);
  }
  size_t first = pending_cursor_;
  pending_cursor_ = end;
  run_.ChunkStarted(first, end - first);
  fs_->ReadBlocks(std::move(blocks), config_.io_class,
                  [this, first, end](const RawReadResult& result) {
                    if (!run_.running()) {
                      return;
                    }
                    run_.stats().io_read_pages += result.blocks_read;
                    if (IsTransient(result.status) &&
                        batch_retry_ < config_.max_retries) {
                      // Device busy window: retry the batch with backoff.
                      ++batch_retry_;
                      run_.Retry(first, batch_retry_);
                      pending_cursor_ = first;
                      fs_->loop().ScheduleAfter(
                          config_.retry_backoff * (SimDuration{1} << (batch_retry_ - 1)),
                          [this] { ProcessDiff(); });
                      return;
                    }
                    batch_retry_ = 0;
                    run_.ChunkFinished(first, end - first);
                    for (size_t i = first; i < end; ++i) {
                      // Blocks that failed to read or verify are not
                      // captured; the next increment retries them.
                      if (std::binary_search(result.bad_blocks.begin(),
                                             result.bad_blocks.end(),
                                             pending_reads_[i].second)) {
                        continue;
                      }
                      captured_[pending_reads_[i].first] =
                          fs_->DiskToken(pending_reads_[i].second);
                      ++run_.stats().work_done;
                    }
                    ProcessDiff();
                  });
}

void IncrementalBackup::Stop() {
  run_.Stop();
  if (base_snapshot_ != 0) {
    (void)fs_->DeleteSnapshot(base_snapshot_);
    base_snapshot_ = 0;
  }
  if (end_snapshot_ != 0) {
    (void)fs_->DeleteSnapshot(end_snapshot_);
    end_snapshot_ = 0;
  }
}

bool IncrementalBackup::IncrementComplete() const {
  const CowFs::Snapshot* base = fs_->GetSnapshot(base_snapshot_);
  const CowFs::Snapshot* end = fs_->GetSnapshot(end_snapshot_);
  if (base == nullptr || end == nullptr) {
    return false;
  }
  for (const auto& [ino, end_file] : end->files) {
    const CowFs::SnapshotFile* base_file = nullptr;
    auto base_it = base->files.find(ino);
    if (base_it != base->files.end()) {
      base_file = &base_it->second;
    }
    for (PageIdx p = 0; p < end_file.blocks.size(); ++p) {
      BlockNo end_block = end_file.blocks[p];
      if (end_block == kInvalidBlock) {
        continue;
      }
      bool changed = base_file == nullptr || p >= base_file->blocks.size() ||
                     base_file->blocks[p] != end_block;
      if (!changed) {
        continue;
      }
      auto captured = captured_.find(PageKey{ino, p});
      if (captured == captured_.end() ||
          captured->second != fs_->DiskToken(end_block)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace duet
