#include "src/tasks/backup.h"

#include <algorithm>
#include <cassert>

namespace duet {

Backup::Backup(CowFs* fs, DuetCore* duet, BackupConfig config)
    : fs_(fs),
      duet_(duet),
      config_(config),
      run_("backup", TaskTag::kBackup, &fs->loop(), duet) {
  assert(fs_ != nullptr);
  assert(!config_.use_duet || duet_ != nullptr);
}

Backup::~Backup() { Stop(); }

void Backup::Start(std::function<void()> on_finish) {
  run_.Begin(std::move(on_finish));
  DeleteSnapshot();  // the previous run's
  pass_ = Pass{};
  std::optional<std::vector<uint64_t>> saved = run_.SavedCursor();
  if (saved.has_value() && fs_->GetSnapshot((*saved)[0]) != nullptr) {
    // The snapshot an interrupted run streamed from survived the crash
    // (it was part of the committed superblock): pick up where it left
    // off instead of snapshotting and streaming everything again.
    snapshot_ = (*saved)[0];
    pass_.resumed = true;
    BeginStreaming((*saved)[1]);
    return;
  }
  fs_->CreateSnapshotAsync([this](Result<SnapshotId> snap) {
    if (!snap.ok() || !run_.running()) {
      run_.Stop();
      return;
    }
    snapshot_ = *snap;
    run_.SaveCursor({snapshot_, 0});
    BeginStreaming(0);
  });
}

void Backup::BeginStreaming(InodeNo resume_after) {
  const CowFs::Snapshot* s = fs_->GetSnapshot(snapshot_);
  for (const auto& [ino, file] : s->files) {
    bool already_sent = ino <= resume_after;
    pass_.sent.emplace(ino, std::vector<bool>(file.blocks.size(), already_sent));
    if (already_sent) {
      pass_.resumed_pages += file.blocks.size();
    } else {
      run_.stats().work_total += file.blocks.size();
    }
  }
  pass_.file_it = s->files.upper_bound(resume_after);
  if (config_.use_duet) {
    run_.Register(duet_->RegisterBlockTask(kDuetPageExists));
    run_.Poll(config_.fetch_interval, [this] {
      DrainDuetEvents();
      if (pass_.pages_sent < run_.stats().work_total) {
        return true;
      }
      run_.Finish();  // everything was copied opportunistically
      return false;
    });
  }
  ProcessNextFile();
}

void Backup::Stop() {
  run_.Stop();
  DeleteSnapshot();
}

void Backup::DeleteSnapshot() {
  if (snapshot_ != 0) {
    (void)fs_->DeleteSnapshot(snapshot_);
    snapshot_ = 0;
  }
}

bool Backup::MarkSent(InodeNo ino, PageIdx idx) {
  auto it = pass_.sent.find(ino);
  if (it == pass_.sent.end() || idx >= it->second.size() || it->second[idx]) {
    return false;
  }
  it->second[idx] = true;
  ++pass_.pages_sent;
  return true;
}

void Backup::DrainDuetEvents() {
  const CowFs::Snapshot* snap = fs_->GetSnapshot(snapshot_);
  run_.Drain([this, snap](const DuetItem& item) {
    if (!item.has(kDuetPageExists)) {
      return;  // ¬exists notifications are uninteresting here
    }
    BlockNo block = item.id;
    Result<FileSystem::BlockOwner> owner = fs_->Rmap(block);
    if (!owner.ok()) {
      return;
    }
    auto file_entry = snap->files.find(owner->ino);
    if (file_entry == snap->files.end() ||
        owner->idx >= file_entry->second.blocks.size() ||
        file_entry->second.blocks[owner->idx] != block) {
      return;  // not part of the snapshot, or modified since
    }
    // "Lock the page, check that it is not dirty, copy it out" (§5.2).
    const CachedPage* page = fs_->cache().Peek(owner->ino, owner->idx);
    if (page == nullptr || page->dirty) {
      return;  // hint went stale or content is in flux — back out
    }
    if (MarkSent(owner->ino, owner->idx)) {
      TaskStats& stats = run_.stats();
      ++stats.work_done;
      ++stats.saved_read_pages;
      ++stats.opportunistic_units;
      (void)duet_->SetDone(run_.sid(), block);
    }
  }, config_.fetch_batch);
}

void Backup::ProcessNextFile() {
  if (!run_.running()) {
    return;
  }
  if (config_.use_duet) {
    DrainDuetEvents();
  }
  const CowFs::Snapshot* snap = fs_->GetSnapshot(snapshot_);
  if (pass_.file_it == snap->files.end()) {
    run_.Finish();
    return;
  }
  ProcessFileChunk(pass_.file_it->first, 0);
}

void Backup::ProcessFileChunk(InodeNo ino, PageIdx next_page) {
  if (!run_.running()) {
    return;
  }
  if (config_.use_duet) {
    DrainDuetEvents();
  }
  const CowFs::Snapshot* snap = fs_->GetSnapshot(snapshot_);
  auto file_entry = snap->files.find(ino);
  assert(file_entry != snap->files.end());
  const CowFs::SnapshotFile& file = file_entry->second;
  const std::vector<bool>& sent = pass_.sent.at(ino);

  // Find the next unsent page of this file.
  PageIdx p = next_page;
  while (p < file.blocks.size() && sent[p]) {
    ++p;
  }
  if (p >= file.blocks.size()) {
    // The in-order stream is past every file up to and including this one;
    // an interrupted run can resume from here.
    run_.SaveCursor({snapshot_, ino});
    ++pass_.file_it;
    // Hop through the event loop: long runs of fully-sent files must not
    // recurse on the stack.
    fs_->loop().ScheduleAfter(0, [this] { ProcessNextFile(); });
    return;
  }

  // Build a run of unsent pages with the same sharing category.
  bool shared = fs_->SharedWithSnapshot(snapshot_, ino, p);
  PageIdx end = p;
  while (end < file.blocks.size() && !sent[end] && end - p < config_.chunk_pages &&
         fs_->SharedWithSnapshot(snapshot_, ino, end) == shared) {
    ++end;
  }
  uint64_t count = end - p;

  run_.ChunkStarted(ino, count);
  // A page whose read failed or did not verify was not sent: with `read_ok`
  // false none of the chunk was, otherwise every page whose snapshot block
  // is in `bad` (ascending) is left unsent.
  auto complete = [this, ino, p, end](uint64_t read_pages, uint64_t cached_pages,
                                      bool read_ok, const std::vector<BlockNo>& bad) {
    if (!run_.running()) {
      return;  // the run finished (opportunistically) or was stopped
    }
    TaskStats& stats = run_.stats();
    if (read_ok) {
      const std::vector<BlockNo>& blocks = fs_->GetSnapshot(snapshot_)->files.at(ino).blocks;
      for (PageIdx q = p; q < end; ++q) {
        if (!std::binary_search(bad.begin(), bad.end(), blocks[q]) && MarkSent(ino, q)) {
          ++stats.work_done;
        }
      }
    }
    stats.io_read_pages += read_pages;
    stats.saved_read_pages += cached_pages;
    run_.ChunkFinished(ino, end - p);
    ProcessFileChunk(ino, end);
  };

  if (shared) {
    // Unmodified since the snapshot: read through the live file (this
    // populates the page cache — visible to other Duet tasks). Read reports
    // no per-page failures, so a failed read leaves the whole chunk unsent.
    fs_->Read(ino, p * kPageSize, count * kPageSize, config_.io_class,
              [complete](const FsIoResult& result) {
                complete(result.pages_from_disk, result.pages_from_cache,
                         result.status.ok(), {});
              });
  } else {
    // Modified since the snapshot: stream the preserved old blocks.
    std::vector<BlockNo> blocks(file.blocks.begin() + static_cast<long>(p),
                                file.blocks.begin() + static_cast<long>(end));
    fs_->ReadBlocks(std::move(blocks), config_.io_class,
                    [complete](const RawReadResult& result) {
                      complete(result.blocks_read, 0, true, result.bad_blocks);
                    });
  }
}

bool Backup::AllPagesSentOnce() const {
  for (const auto& [ino, pages] : pass_.sent) {
    for (bool sent : pages) {
      if (!sent) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace duet
