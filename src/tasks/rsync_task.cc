#include "src/tasks/rsync_task.h"

#include <algorithm>
#include <cassert>

namespace duet {
namespace {

// Joins base and relative paths with exactly one slash.
std::string JoinPath(const std::string& base, const std::string& rel) {
  std::string out = base;
  if (!out.empty() && out.back() == '/') {
    out.pop_back();
  }
  if (!rel.empty() && rel.front() != '/') {
    out += '/';
  }
  out += rel;
  return out.empty() ? "/" : out;
}

}  // namespace

RsyncTask::RsyncTask(FileSystem* src, FileSystem* dst, DuetCore* duet,
                     RsyncConfig config)
    : src_(src),
      dst_(dst),
      duet_(duet),
      config_(config),
      run_("rsync", TaskTag::kRsync, &src->loop(), duet) {
  assert(src_ != nullptr && dst_ != nullptr);
  assert(config_.hints != RsyncHints::kDuet || duet_ != nullptr);
}

RsyncTask::~RsyncTask() { Stop(); }

void RsyncTask::Start(std::function<void()> on_finish) {
  run_.Begin(std::move(on_finish));
  pass_ = Pass{};

  InodeNo root = run_.ResolveRoot(src_->ns(), config_.source_dir);
  src_->ns().WalkDepthFirst(root, [&](const Inode& inode) {
    if (!inode.is_dir()) {
      pass_.worklist.push_back(inode.ino);
      run_.stats().work_total += 2 * inode.PageCount();  // read + write
    }
    return true;
  });

  if (config_.hints == RsyncHints::kDuet) {
    // Priority: absolute number of pages in memory (§5.5).
    pass_.queue = std::make_unique<InodePriorityQueue>(
        [](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
    run_.Register(duet_->RegisterFileTask(config_.source_dir, kDuetPageExists));
  } else if (config_.hints == RsyncHints::kInotify) {
    // One watch per directory, recursively — the setup cost Duet avoids
    // with a single registration (§3.3).
    pass_.inotify = std::make_unique<Inotify>(src_);
    Result<uint64_t> created = pass_.inotify->AddWatchRecursive(root, kInAccess | kInModify);
    pass_.watches_created = created.ok() ? *created : 0;
  }
  ProcessNext();
}

void RsyncTask::DrainDuetEvents() {
  run_.Drain(*pass_.queue);
}

void RsyncTask::ProcessNext() {
  if (!run_.running()) {
    return;
  }
  if (config_.hints == RsyncHints::kDuet) {
    DrainDuetEvents();
    while (std::optional<InodeNo> hot = pass_.queue->Dequeue()) {
      if (pass_.synced.count(*hot) > 0) {
        continue;
      }
      // The path lookup is the truth for the hint (§3.2): back out if the
      // file's pages are gone or it left the registered directory.
      if (!duet_->GetPath(run_.sid(), *hot).ok()) {
        continue;
      }
      SyncFile(*hot, /*opportunistic=*/true);
      return;
    }
  } else if (config_.hints == RsyncHints::kInotify) {
    // File-level hints only: most-recently-touched first, with no idea how
    // much of the file is still cached (or whether it was evicted).
    for (const InotifyEvent& event : pass_.inotify->ReadEvents(TaskRun::kFetchBatch)) {
      pass_.recent.push_back(event.ino);
    }
    while (!pass_.recent.empty()) {
      InodeNo hot = pass_.recent.back();
      pass_.recent.pop_back();
      if (pass_.synced.count(hot) > 0 || !src_->ns().Exists(hot)) {
        continue;
      }
      SyncFile(hot, /*opportunistic=*/true);
      return;
    }
  }
  while (pass_.cursor < pass_.worklist.size()) {
    InodeNo ino = pass_.worklist[pass_.cursor++];
    if (pass_.synced.count(ino) > 0) {
      continue;  // sent opportunistically; metadata goes out exactly once
    }
    if (!src_->ns().Exists(ino)) {
      continue;  // deleted since the walk
    }
    SyncFile(ino, /*opportunistic=*/false);
    return;
  }
  run_.Finish();
}

void RsyncTask::SyncFile(InodeNo src_ino, bool opportunistic) {
  pass_.synced.insert(src_ino);
  const Inode* inode = src_->ns().Get(src_ino);
  if (inode == nullptr) {
    src_->loop().ScheduleAfter(0, [this] { ProcessNext(); });
    return;
  }
  // Sender transmits the file metadata; receiver creates the file (and any
  // missing parent directories).
  Result<std::string> src_path = src_->ns().PathOf(src_ino);
  assert(src_path.ok());
  std::string rel = *src_path;
  Result<InodeNo> src_root = src_->ns().Resolve(config_.source_dir);
  Result<std::string> base = src_->ns().PathOf(*src_root);
  if (base.ok() && *base != "/") {
    rel = rel.substr(base->size());
  }
  std::string dst_path = JoinPath(config_.dest_dir, rel);
  // Ensure the destination directory chain exists.
  auto parts = SplitPath(dst_path);
  std::string prefix;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    prefix += '/';
    prefix += parts[i];
    Result<InodeNo> made = dst_->Mkdir(prefix);
    (void)made;  // kExists is fine
  }
  Result<InodeNo> dst_ino = dst_->ns().Resolve(dst_path);
  if (!dst_ino.ok()) {
    dst_ino = dst_->CreateFile(dst_path);
  }
  if (!dst_ino.ok()) {
    src_->loop().ScheduleAfter(0, [this] { ProcessNext(); });
    return;
  }
  if (opportunistic) {
    run_.stats().opportunistic_units += 2 * inode->PageCount();
  }
  CopyChunk(src_ino, *dst_ino, 0, inode->size, opportunistic);
}

void RsyncTask::CopyChunk(InodeNo src_ino, InodeNo dst_ino, PageIdx next_page,
                          uint64_t src_size, bool opportunistic) {
  if (!run_.running()) {
    return;
  }
  if (config_.hints == RsyncHints::kDuet) {
    DrainDuetEvents();  // keep the queue fresh while a large file streams
  }
  uint64_t total_pages = PagesForBytes(src_size);
  if (next_page >= total_pages) {
    ++pass_.files_synced;
    src_->loop().ScheduleAfter(0, [this] { ProcessNext(); });
    return;
  }
  uint64_t count = std::min<uint64_t>(kChunkPages, total_pages - next_page);
  ByteOff off = next_page * kPageSize;
  uint64_t len = std::min<uint64_t>(count * kPageSize, src_size - off);
  run_.ChunkStarted(src_ino, count);
  src_->Read(src_ino, off, len, kIoClass,
             [this, src_ino, dst_ino, next_page, count, src_size, off, len,
              opportunistic](const FsIoResult& read) {
               run_.stats().io_read_pages += read.pages_from_disk;
               run_.stats().saved_read_pages += read.pages_from_cache;
               run_.stats().work_done += read.pages_requested;
               // Receiver writes the chunk contents to the destination.
               std::vector<uint64_t> tokens;
               tokens.reserve(count);
               for (PageIdx q = next_page; q < next_page + count; ++q) {
                 Result<uint64_t> content = src_->PageContent(src_ino, q);
                 tokens.push_back(content.ok() ? *content : 0);
               }
               dst_->CopyIn(dst_ino, off, len, std::move(tokens), kIoClass,
                            [this, src_ino, dst_ino, next_page, count, src_size,
                             opportunistic](const FsIoResult& write) {
                              run_.stats().io_write_pages += write.pages_requested;
                              run_.stats().work_done += write.pages_requested;
                              run_.ChunkFinished(src_ino, count);
                              CopyChunk(src_ino, dst_ino, next_page + count,
                                        src_size, opportunistic);
                            });
             });
}

bool RsyncTask::DestinationMatchesSource() const {
  Result<InodeNo> root = src_->ns().Resolve(config_.source_dir);
  if (!root.ok()) {
    return false;
  }
  bool match = true;
  src_->ns().WalkDepthFirst(*root, [&](const Inode& inode) {
    if (inode.is_dir()) {
      return true;
    }
    Result<std::string> src_path = src_->ns().PathOf(inode.ino);
    std::string rel = *src_path;
    Result<std::string> base = src_->ns().PathOf(*root);
    if (base.ok() && *base != "/") {
      rel = rel.substr(base->size());
    }
    Result<InodeNo> dst_ino = dst_->ns().Resolve(JoinPath(config_.dest_dir, rel));
    if (!dst_ino.ok()) {
      match = false;
      return false;
    }
    const Inode* dst_inode = dst_->ns().Get(*dst_ino);
    if (dst_inode->size != inode.size) {
      match = false;
      return false;
    }
    for (PageIdx p = 0; p < inode.PageCount(); ++p) {
      Result<uint64_t> src_content = src_->PageContent(inode.ino, p);
      Result<uint64_t> dst_content = dst_->PageContent(*dst_ino, p);
      if (!src_content.ok() || !dst_content.ok() || *src_content != *dst_content) {
        match = false;
        return false;
      }
    }
    return true;
  });
  return match;
}

}  // namespace duet
