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
  pass_.in_snapshot.Resize(fs_->capacity_blocks());
  pass_.sent.Resize(fs_->capacity_blocks());
  for (const auto& [ino, file] : s->files) {
    const bool already_sent = ino <= resume_after;
    uint64_t pages = 0;
    for (BlockNo block : file.blocks) {
      if (block == kInvalidBlock) {
        continue;  // a hole: nothing to send
      }
      ++pages;
      pass_.in_snapshot.Set(block);
      if (already_sent) {
        pass_.sent.Set(block);
      }
    }
    if (already_sent) {
      pass_.resumed_pages += pages;
    } else {
      run_.stats().work_total += pages;
    }
  }
  pass_.file_it = s->files.upper_bound(resume_after);
  if (config_.use_duet) {
    run_.Register(duet_->RegisterBlockTask(kDuetPageExists));
    run_.Poll([this] {
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

bool Backup::MarkSent(BlockNo block) {
  if (!pass_.in_snapshot.Test(block) || pass_.sent.Test(block)) {
    return false;
  }
  pass_.sent.Set(block);
  ++pass_.pages_sent;
  return true;
}

void Backup::MarkDone(BlockNo first, uint64_t count) {
  if (config_.use_duet) {
    (void)duet_->SetDone(run_.sid(), first, count);
  }
}

void Backup::DrainDuetEvents() {
  run_.Drain([this](const DuetItem& item) {
    if (!item.has(kDuetPageExists)) {
      return;  // ¬exists notifications are uninteresting here
    }
    // The page's live block when it was fetched. Outside the snapshot, the
    // page was written since (or is new): the backup never sends the block,
    // and no later owner can bring it into the snapshot, so mark it done
    // (as file tasks mark irrelevant inodes, §4.1).
    const BlockNo block = item.id;
    if (!pass_.in_snapshot.Test(block)) {
      (void)duet_->SetDone(run_.sid(), block);
      return;
    }
    if (pass_.sent.Test(block)) {
      return;
    }
    // A snapshot block's reverse-map owner is the page the snapshot holds
    // in it, which still shares it: the page is unmodified since.
    Result<FileSystem::BlockOwner> owner = fs_->Rmap(block);
    assert(owner.ok());
    // "Lock the page, check that it is not dirty, copy it out" (§5.2).
    const CachedPage* page = fs_->cache().Peek(owner->ino, owner->idx);
    if (page == nullptr || page->dirty) {
      return;  // hint went stale or content is in flux — back out
    }
    MarkSent(block);
    MarkDone(block, 1);
    TaskStats& stats = run_.stats();
    ++stats.work_done;
    ++stats.saved_read_pages;
    ++stats.opportunistic_units;
  });
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
  // True when page `q` has a snapshot block that is not sent yet.
  auto unsent = [this, &file](PageIdx q) {
    return file.blocks[q] != kInvalidBlock && !pass_.sent.Test(file.blocks[q]);
  };

  // Find the next unsent page of this file.
  PageIdx p = next_page;
  while (p < file.blocks.size() && !unsent(p)) {
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

  // Build a run of unsent pages with the same sharing category. An unsent
  // page is shared while the live file still maps it to its snapshot block
  // (the Btrfs back-reference check of §5.2): not modified since.
  auto shared_at = [this, ino, &file](PageIdx q) {
    return fs_->BlockOf(ino, q) == file.blocks[q];
  };
  bool shared = shared_at(p);
  PageIdx end = p;
  while (end < file.blocks.size() && unsent(end) && end - p < kChunkPages &&
         shared_at(end) == shared) {
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
      // Each run of consecutive blocks sent is marked done with one call.
      const std::vector<BlockNo>& blocks = fs_->GetSnapshot(snapshot_)->files.at(ino).blocks;
      BlockNo run_first = 0;
      uint64_t run_count = 0;
      for (PageIdx q = p; q < end; ++q) {
        if (std::binary_search(bad.begin(), bad.end(), blocks[q]) || !MarkSent(blocks[q])) {
          continue;
        }
        ++stats.work_done;
        if (blocks[q] != run_first + run_count) {
          MarkDone(run_first, run_count);
          run_first = blocks[q];
          run_count = 0;
        }
        ++run_count;
      }
      MarkDone(run_first, run_count);
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
    fs_->Read(ino, p * kPageSize, count * kPageSize, kIoClass,
              [complete](const FsIoResult& result) {
                complete(result.pages_from_disk, result.pages_from_cache,
                         result.status.ok(), {});
              });
  } else {
    // Modified since the snapshot: stream the preserved old blocks.
    std::vector<BlockNo> blocks(file.blocks.begin() + static_cast<long>(p),
                                file.blocks.begin() + static_cast<long>(end));
    fs_->ReadBlocks(std::move(blocks), kIoClass,
                    [complete](const RawReadResult& result) {
                      complete(result.blocks_read, 0, true, result.bad_blocks);
                    });
  }
}

bool Backup::AllPagesSentOnce() const {
  // MarkSent keeps the sent blocks a subset of the snapshot's.
  return pass_.sent.Count() == pass_.in_snapshot.Count();
}

}  // namespace duet
