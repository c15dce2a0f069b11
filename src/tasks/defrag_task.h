// Whole-file-system defragmentation task (paper §5.3), modeled on the
// in-kernel Btrfs defragmenter the authors built: walks files in inode-number
// order and rewrites fragmented files into contiguous extents.
//
// Opportunistic mode registers a Duet file task for Exists notifications and
// keeps a priority queue of files ordered by the fraction of their pages in
// memory (Algorithm 1); queued files are defragmented first, saving their
// cached reads, and pages already dirtied by the workload count as saved
// writes (they would have been written back anyway).
#ifndef SRC_TASKS_DEFRAG_TASK_H_
#define SRC_TASKS_DEFRAG_TASK_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/duet/duet_library.h"
#include "src/tasks/task_run.h"

namespace duet {

struct DefragConfig {
  bool use_duet = false;
  std::string root = "/";
};

class DefragTask {
 public:
  // Only files with more than this many extents are rewritten.
  static constexpr uint64_t kExtentThreshold = 3;
  // Maintenance I/O runs at idle priority (§6.5), so the rewrites yield to
  // the workload.
  static constexpr IoClass kIoClass = IoClass::kIdle;

  DefragTask(CowFs* fs, DuetCore* duet, DefragConfig config);
  ~DefragTask();

  void Start(std::function<void()> on_finish = nullptr);
  void Stop() { run_.Stop(); }

  const TaskStats& stats() const { return run_.stats(); }
  uint64_t files_defragmented() const { return pass_.files_defragmented; }

 private:
  void ProcessNext();
  // Defragments `ino` then continues with ProcessNext.
  void DefragOne(InodeNo ino, bool opportunistic);
  bool ShouldProcess(InodeNo ino) const;

  CowFs* fs_;
  DuetCore* duet_;
  DefragConfig config_;
  TaskRun run_;
  // tasks.defrag.failed: files whose DefragFile failed (e.g. no free run
  // for the destination once the device is full).
  obs::Counter* failed_;
  // Per-run state; Start() resets it so every run starts from scratch.
  struct Pass {
    std::vector<InodeNo> targets;  // inode order (the baseline order)
    size_t cursor = 0;
    std::unique_ptr<InodePriorityQueue> queue;
    uint64_t files_defragmented = 0;
  } pass_;
};

}  // namespace duet

#endif  // SRC_TASKS_DEFRAG_TASK_H_
