// Incremental backup: the paper's §1 motivating example — "a block modified
// by the workload can be used by an incremental backup task, avoiding an
// additional read".
//
// The task copies to backup storage every block modified since a previous
// snapshot (epoch). Baseline: at the end of the backup window it diffs the
// current snapshot against the base snapshot and reads every changed block
// from disk. Opportunistic mode subscribes to Modified state notifications:
// when the workload dirties a block, the task copies the page straight from
// memory (after it is flushed, so the backup matches on-disk state), before
// it can be evicted — turning the end-of-window read pass into a trickle of
// free copies.
#ifndef SRC_TASKS_INCREMENTAL_BACKUP_H_
#define SRC_TASKS_INCREMENTAL_BACKUP_H_

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/tasks/task_run.h"

namespace duet {

struct IncrementalBackupConfig {
  bool use_duet = false;
  uint32_t chunk_pages = 16;
  IoClass io_class = IoClass::kIdle;
  size_t fetch_batch = 256;
  SimDuration fetch_interval = Millis(20);
  // Bounded retry with exponential backoff for transiently-failed batch
  // reads (device busy windows).
  uint32_t max_retries = 3;
  SimDuration retry_backoff = Millis(10);
};

class IncrementalBackup {
 public:
  IncrementalBackup(CowFs* fs, DuetCore* duet, IncrementalBackupConfig config);
  ~IncrementalBackup();

  // Takes the *base* snapshot; changes after this instant belong to the
  // increment.
  void BeginEpoch();

  // Ends the epoch: takes the end snapshot, then copies every page whose
  // content differs from the base snapshot (reading from disk whatever was
  // not already captured opportunistically). `on_finish` fires when the
  // increment is fully captured.
  void EndEpoch(std::function<void()> on_finish = nullptr);

  void Stop();

  const TaskStats& stats() const { return run_.stats(); }

  // Test hook: true if every page that differs between the base and end
  // snapshots was captured with its end-snapshot content.
  bool IncrementComplete() const;

 private:
  struct PageKey {
    InodeNo ino;
    PageIdx idx;
    bool operator==(const PageKey&) const = default;
  };
  struct PageKeyHash {
    size_t operator()(const PageKey& k) const {
      return std::hash<uint64_t>()(k.ino * 0x9e3779b97f4a7c15ULL ^ k.idx);
    }
  };

  void DrainDuetEvents();
  void ProcessDiff();  // end-of-epoch catch-up pass

  CowFs* fs_;
  DuetCore* duet_;
  IncrementalBackupConfig config_;
  TaskRun run_;  // one run per epoch
  SnapshotId base_snapshot_ = 0;
  SnapshotId end_snapshot_ = 0;
  // Captured increment: page -> content token at capture time.
  std::unordered_map<PageKey, uint64_t, PageKeyHash> captured_;
  // Diff worklist for the catch-up pass.
  std::vector<std::pair<PageKey, BlockNo>> pending_reads_;
  size_t pending_cursor_ = 0;
  uint32_t batch_retry_ = 0;  // consecutive transient retries of this batch
};

}  // namespace duet

#endif  // SRC_TASKS_INCREMENTAL_BACKUP_H_
