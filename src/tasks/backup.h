// Snapshot-based backup (paper §5.2), modeled on the Btrfs backup tool: a
// read-only snapshot is taken at start, and files are streamed to backup
// storage in inode order, each file read fully before the next. A chunk
// whose read fails transiently is read again with TaskRun's retry budget and
// backoff; a page is sent only once it was read intact.
//
// Opportunistic mode registers a Duet block task for Exists state
// notifications. A reported block is a cached page's live block; if the
// snapshot holds that block (the page is unmodified since) and the page is
// clean, it is copied to the backup stream out of order, saving the read.
// Blocks the backup will never send are marked done in Duet, so their pages
// stop generating events: a block outside the snapshot when the drain first
// sees it, and each snapshot block once sent, by either path.
#ifndef SRC_TASKS_BACKUP_H_
#define SRC_TASKS_BACKUP_H_

#include <functional>
#include <map>
#include <string>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/tasks/task_run.h"
#include "src/util/bitmap.h"

namespace duet {

struct BackupConfig {
  bool use_duet = false;
};

class Backup {
 public:
  // Pages per stream read: 64 KiB, as the paper's tool issues.
  static constexpr uint32_t kChunkPages = 16;
  // Maintenance I/O runs at idle priority (§6.5), so the stream yields to
  // the workload.
  static constexpr IoClass kIoClass = IoClass::kIdle;

  Backup(CowFs* fs, DuetCore* duet, BackupConfig config);
  ~Backup();

  // Takes the snapshot (syncing first) and starts streaming.
  void Start(std::function<void()> on_finish = nullptr);
  void Stop();

  // ---- Crash resume ----
  // Persists {snapshot id, last fully-streamed inode} after every completed
  // file. A Start() after a crash and remount reuses the persisted snapshot
  // (snapshots are part of the committed superblock) and skips files already
  // streamed; the file in flight at the crash is re-streamed from its first
  // page. Falls back to a fresh snapshot when the persisted one did not
  // survive (no superblock commit covered it).
  void EnableCursorPersistence(DurableImage* image,
                               std::string key = "cursor.backup") {
    run_.PersistCursor(image, std::move(key), 2);
  }
  bool resumed() const { return pass_.resumed; }
  // Pages skipped on resume because a previous run already streamed them.
  uint64_t resumed_pages() const { return pass_.resumed_pages; }

  const TaskStats& stats() const { return run_.stats(); }
  // Bytes "sent" to backup storage (both in-order and opportunistic).
  uint64_t bytes_sent() const { return pass_.pages_sent * kPageSize; }

  // Verifies that every page of the snapshot was sent exactly once, with
  // snapshot-consistent content (test hook). A hole in a snapshot file
  // holds no data and has nothing to send.
  bool AllPagesSentOnce() const;

 private:
  // Builds the snapshot and sent block maps (pre-marking files streamed
  // before a crash) and starts the in-order stream after `resume_after`.
  void BeginStreaming(InodeNo resume_after);
  void ProcessNextFile();
  void ProcessFileChunk(InodeNo ino, PageIdx next_page);
  void DrainDuetEvents();
  void DeleteSnapshot();
  // Records the snapshot page stored in `block` as sent; returns false if it
  // was sent before. The caller marks the block done in Duet.
  bool MarkSent(BlockNo block);
  // Sent is final: the run's page events are of no further use.
  void MarkDone(BlockNo first, uint64_t count);

  CowFs* fs_;
  DuetCore* duet_;
  BackupConfig config_;
  TaskRun run_;
  SnapshotId snapshot_ = 0;
  // Per-run state; Start() resets it so every run starts from scratch.
  struct Pass {
    bool resumed = false;
    uint64_t resumed_pages = 0;
    uint64_t pages_sent = 0;
    std::map<InodeNo, CowFs::SnapshotFile>::const_iterator file_it;
    // Over device blocks: the blocks the snapshot holds, one per snapshot
    // page (a hole has none), and those of them already sent (tracked
    // outside Duet so completion can be verified independently of the hint
    // layer). A snapshot block keeps its page for the whole pass: the
    // snapshot's reference keeps it from being freed or reallocated.
    Bitmap in_snapshot;
    Bitmap sent;
  } pass_;
};

}  // namespace duet

#endif  // SRC_TASKS_BACKUP_H_
