#include "src/tasks/defrag_task.h"

#include <algorithm>
#include <cassert>

namespace duet {

DefragTask::DefragTask(CowFs* fs, DuetCore* duet, DefragConfig config)
    : fs_(fs),
      duet_(duet),
      config_(config),
      run_("defrag", TaskTag::kDefrag, &fs->loop(), duet),
      failed_(fs->loop().obs().metrics.GetCounter("tasks.defrag.failed")) {
  assert(fs_ != nullptr);
  assert(!config_.use_duet || duet_ != nullptr);
}

DefragTask::~DefragTask() { Stop(); }

void DefragTask::Start(std::function<void()> on_finish) {
  run_.Begin(std::move(on_finish));
  pass_ = Pass{};

  // Collect fragmented files in inode order (the baseline processing order,
  // Table 3). Work units are pages: each fragmented file costs read+write of
  // all its pages.
  InodeNo root = run_.ResolveRoot(fs_->ns(), config_.root);
  std::vector<const Inode*> files;
  fs_->ns().WalkDepthFirst(root, [&](const Inode& inode) {
    if (!inode.is_dir() && fs_->ExtentCount(inode.ino) > kExtentThreshold) {
      files.push_back(&inode);
    }
    return true;
  });
  std::sort(files.begin(), files.end(),
            [](const Inode* a, const Inode* b) { return a->ino < b->ino; });
  for (const Inode* f : files) {
    pass_.targets.push_back(f->ino);
    run_.stats().work_total += 2 * f->PageCount();  // read + write
  }

  if (config_.use_duet) {
    // Priority: fraction of the file's pages in memory relative to its size
    // (§5.3).
    pass_.queue = std::make_unique<InodePriorityQueue>(
        [this](InodeNo ino, uint64_t pages) {
          const Inode* inode = fs_->ns().Get(ino);
          if (inode == nullptr || inode->PageCount() == 0) {
            return 0.0;
          }
          return static_cast<double>(pages) /
                 static_cast<double>(inode->PageCount());
        });
    run_.Register(duet_->RegisterFileTask(config_.root, kDuetPageExists));
  }
  ProcessNext();
}

bool DefragTask::ShouldProcess(InodeNo ino) const {
  if (config_.use_duet && duet_->CheckDone(run_.sid(), ino)) {
    return false;
  }
  const Inode* inode = fs_->ns().Get(ino);
  // A COW overwrite may have defragmented (or deleted) the file meanwhile —
  // the task can simply skip it (§3.1).
  return inode != nullptr && fs_->ExtentCount(ino) > kExtentThreshold;
}

void DefragTask::ProcessNext() {
  if (!run_.running()) {
    return;
  }
  // Opportunistic phase: drain events and process the hottest queued file.
  if (config_.use_duet) {
    run_.Drain(*pass_.queue);
    while (std::optional<InodeNo> hot = pass_.queue->Dequeue()) {
      if (ShouldProcess(*hot)) {
        DefragOne(*hot, /*opportunistic=*/true);
        return;
      }
    }
  }
  // Normal order: next fragmented file by inode number.
  while (pass_.cursor < pass_.targets.size()) {
    InodeNo ino = pass_.targets[pass_.cursor++];
    if (ShouldProcess(ino)) {
      DefragOne(ino, /*opportunistic=*/false);
      return;
    }
    if (config_.use_duet && duet_->CheckDone(run_.sid(), ino)) {
      continue;  // processed opportunistically; already credited there
    }
    // Defragmented by a COW overwrite or deleted by the workload: the
    // obligation is discharged without I/O.
    const Inode* inode = fs_->ns().Get(ino);
    run_.stats().work_done += 2 * (inode != nullptr ? inode->PageCount() : 0);
  }
  run_.Finish();
}

void DefragTask::DefragOne(InodeNo ino, bool opportunistic) {
  run_.ChunkStarted(ino, 0);
  fs_->DefragFile(ino, kIoClass, [this, ino, opportunistic](const DefragResult& result) {
    run_.ChunkFinished(ino, result.pages);
    if (result.status.ok()) {
      TaskStats& stats = run_.stats();
      ++pass_.files_defragmented;
      stats.work_done += 2 * result.pages;
      stats.io_read_pages += result.pages_read_disk;
      stats.io_write_pages += result.pages_written;
      stats.saved_read_pages += result.pages_from_cache;
      // Pages the workload had already dirtied would have been written back
      // anyway — their writeback is work the system saves (§6.2).
      stats.saved_write_pages += result.dirty_pages;
      if (opportunistic) {
        stats.opportunistic_units += 2 * result.pages;
      }
    } else {
      // Not retried: the file stays fragmented and its work undone.
      failed_->Add();
    }
    if (config_.use_duet) {
      (void)duet_->SetDone(run_.sid(), ino);
      pass_.queue->Erase(ino);
    }
    if (run_.running()) {
      fs_->loop().ScheduleAfter(0, [this] { ProcessNext(); });
    }
  });
}

}  // namespace duet
