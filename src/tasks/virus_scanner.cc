#include "src/tasks/virus_scanner.h"

#include <algorithm>
#include <cassert>

namespace duet {

VirusScanner::VirusScanner(FileSystem* fs, DuetCore* duet, VirusScannerConfig config)
    : fs_(fs),
      duet_(duet),
      config_(config),
      run_("virus_scan", TaskTag::kVirusScan, &fs->loop(), duet) {
  assert(fs_ != nullptr);
  assert(!config_.use_duet || duet_ != nullptr);
}

VirusScanner::~VirusScanner() { Stop(); }

void VirusScanner::Start(std::function<void()> on_finish) {
  run_.Begin(std::move(on_finish));
  pass_ = Pass{};

  InodeNo root = run_.ResolveRoot(fs_->ns(), config_.root);
  fs_->ns().WalkDepthFirst(root, [&](const Inode& inode) {
    if (!inode.is_dir()) {
      pass_.worklist.push_back(inode.ino);
      run_.stats().work_total += inode.PageCount();  // scans are read-only
    }
    return true;
  });

  if (config_.use_duet) {
    pass_.queue = std::make_unique<InodePriorityQueue>(
        [](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
    run_.Register(duet_->RegisterFileTask(config_.root, kDuetPageExists));
    run_.Poll(config_.fetch_interval, [this] {
      DrainDuetEvents();
      return true;
    });
  }
  ProcessNext();
}

void VirusScanner::DrainDuetEvents() {
  run_.Drain(*pass_.queue, config_.fetch_batch);
}

void VirusScanner::ProcessNext() {
  if (!run_.running()) {
    return;
  }
  if (config_.use_duet) {
    DrainDuetEvents();
    while (std::optional<InodeNo> hot = pass_.queue->Dequeue()) {
      if (duet_->CheckDone(run_.sid(), *hot)) {
        continue;  // already scanned
      }
      if (!duet_->GetPath(run_.sid(), *hot).ok()) {
        continue;  // hint went stale
      }
      ScanFile(*hot, /*opportunistic=*/true);
      return;
    }
  }
  while (pass_.cursor < pass_.worklist.size()) {
    InodeNo ino = pass_.worklist[pass_.cursor++];
    if (config_.use_duet && duet_->CheckDone(run_.sid(), ino)) {
      continue;
    }
    if (!fs_->ns().Exists(ino)) {
      continue;  // deleted since the walk
    }
    ScanFile(ino, /*opportunistic=*/false);
    return;
  }
  run_.Finish();
}

void VirusScanner::ScanFile(InodeNo ino, bool opportunistic) {
  if (config_.use_duet) {
    (void)duet_->SetDone(run_.sid(), ino);
    pass_.queue->Erase(ino);
  }
  const Inode* inode = fs_->ns().Get(ino);
  if (inode == nullptr) {
    fs_->loop().ScheduleAfter(0, [this] { ProcessNext(); });
    return;
  }
  if (opportunistic) {
    run_.stats().opportunistic_units += inode->PageCount();
  }
  ScanChunk(ino, 0, inode->size, opportunistic);
}

void VirusScanner::ScanChunk(InodeNo ino, PageIdx next_page, uint64_t size,
                             bool opportunistic) {
  if (!run_.running()) {
    return;
  }
  uint64_t total_pages = PagesForBytes(size);
  if (next_page >= total_pages) {
    ++pass_.files_scanned;
    fs_->loop().ScheduleAfter(0, [this] { ProcessNext(); });
    return;
  }
  uint64_t count = std::min<uint64_t>(config_.chunk_pages, total_pages - next_page);
  ByteOff off = next_page * kPageSize;
  uint64_t len = std::min<uint64_t>(count * kPageSize, size - off);
  run_.ChunkStarted(ino, count);
  fs_->Read(ino, off, len, config_.io_class,
            [this, ino, next_page, count, size, opportunistic](const FsIoResult& read) {
              if (!run_.running()) {
                return;
              }
              run_.stats().io_read_pages += read.pages_from_disk;
              run_.stats().saved_read_pages += read.pages_from_cache;
              run_.stats().work_done += read.pages_requested;
              run_.ChunkFinished(ino, count);
              // Match each page's content against the signature set.
              for (PageIdx q = next_page; q < next_page + count; ++q) {
                Result<uint64_t> content = fs_->PageContent(ino, q);
                if (content.ok() && signatures_.count(*content) > 0) {
                  if (pass_.infected.empty() || pass_.infected.back() != ino) {
                    pass_.infected.push_back(ino);
                  }
                }
              }
              ScanChunk(ino, next_page + count, size, opportunistic);
            });
}

}  // namespace duet
