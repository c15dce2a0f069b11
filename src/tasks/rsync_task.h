// Rsync-style directory synchronization (paper §5.5): copies a source
// directory tree to a destination file system (a separate device), as when
// rsync runs locally between two disks. The sender walks the source tree
// depth-first; the generator/receiver side checksums existing destination
// files and writes updated data. With an initially empty destination, every
// file is read once at the source and written once at the destination.
//
// Opportunistic mode registers a Duet file task for Exists notifications and
// prioritizes files with the most pages in memory (Algorithm 1). File
// metadata is sent exactly once, whether a file is processed in DFS order or
// out of order. Unlike the in-kernel tasks, rsync runs at *normal* I/O
// priority (§6.2), so it competes with the foreground workload.
#ifndef SRC_TASKS_RSYNC_TASK_H_
#define SRC_TASKS_RSYNC_TASK_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/duet/duet_core.h"
#include "src/duet/duet_library.h"
#include "src/duet/inotify.h"
#include "src/fs/file_system.h"
#include "src/tasks/task_run.h"

namespace duet {

// Hint source for opportunistic processing (§3.3 compares Duet's page-level
// hints with Inotify's file-level ones).
enum class RsyncHints { kNone, kDuet, kInotify };

struct RsyncConfig {
  RsyncHints hints = RsyncHints::kNone;
  std::string source_dir = "/";
  std::string dest_dir = "/";
};

class RsyncTask {
 public:
  // rsync processes files in 32 KiB chunks (§5.6).
  static constexpr uint32_t kChunkPages = 8;
  // rsync is a user-space tool and runs at normal priority (§6.2).
  static constexpr IoClass kIoClass = IoClass::kBestEffort;

  // Source and destination are distinct file systems on distinct devices.
  RsyncTask(FileSystem* src, FileSystem* dst, DuetCore* duet, RsyncConfig config);
  ~RsyncTask();

  void Start(std::function<void()> on_finish = nullptr);
  void Stop() { run_.Stop(); }

  const TaskStats& stats() const { return run_.stats(); }
  uint64_t files_synced() const { return pass_.files_synced; }
  // Inotify mode: number of per-directory watches that had to be created.
  uint64_t watches_created() const { return pass_.watches_created; }

  // Verifies every source file exists at the destination with identical
  // content (test hook; call after the destination has been synced).
  bool DestinationMatchesSource() const;

 private:
  void ProcessNext();
  void SyncFile(InodeNo src_ino, bool opportunistic);
  void CopyChunk(InodeNo src_ino, InodeNo dst_ino, PageIdx next_page,
                 uint64_t src_size, bool opportunistic);
  void DrainDuetEvents();

  FileSystem* src_;
  FileSystem* dst_;
  DuetCore* duet_;
  RsyncConfig config_;
  TaskRun run_;
  // Per-run state; Start() resets it so every run starts from scratch.
  struct Pass {
    std::vector<InodeNo> worklist;  // DFS order (metadata pass)
    size_t cursor = 0;
    std::unordered_set<InodeNo> synced;  // metadata sent exactly once
    std::unique_ptr<InodePriorityQueue> queue;
    // Inotify mode: recency list of files with recent activity (no page
    // counts, no eviction knowledge — the information gap vs Duet).
    std::unique_ptr<Inotify> inotify;
    std::deque<InodeNo> recent;
    uint64_t watches_created = 0;
    uint64_t files_synced = 0;
  } pass_;
};

}  // namespace duet

#endif  // SRC_TASKS_RSYNC_TASK_H_
