// One maintenance task's lifecycle (paper §4.2, Algorithm 1): begin a run,
// register a Duet session, poll and fetch on a timer, process, mark the run
// finished, deregister. Every maintenance task owns one TaskRun, which holds
// the run's TaskStats, running flag, completion callback, Duet session,
// timer and crash-resume cursor; the task itself keeps only its own
// processing order and I/O.
//
// Each step is also reported: registry counters under tasks.<name>.* plus
// trace events stamped with a stable numeric task tag, into the context of
// the loop the task runs on.
#ifndef SRC_TASKS_TASK_RUN_H_
#define SRC_TASKS_TASK_RUN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/duet/duet_core.h"
#include "src/fs/namespace.h"
#include "src/obs/obs.h"
#include "src/sim/event_loop.h"
#include "src/sim/time.h"
#include "src/util/status.h"

namespace duet {

class DurableImage;
class InodePriorityQueue;

// Trace payload tags (wire format; do not renumber existing entries, and do
// not reuse the retired 3).
enum class TaskTag : uint64_t {
  kScrub = 1,
  kBackup = 2,
  kDefrag = 4,
  kGc = 5,
  kRsync = 6,
};

// One run's results, supporting the paper's metrics (Table 4): I/O saved,
// work completed, and completion time.
struct TaskStats {
  uint64_t work_total = 0;      // units (pages/blocks) the task must process
  uint64_t work_done = 0;       // units processed (normally or opportunistically)
  uint64_t io_read_pages = 0;   // device read I/O the task performed
  uint64_t io_write_pages = 0;  // device write I/O the task performed
  uint64_t saved_read_pages = 0;   // reads avoided thanks to cached data
  uint64_t saved_write_pages = 0;  // writes avoided (already-dirty pages)
  uint64_t opportunistic_units = 0;  // units processed out of order
  bool finished = false;
  SimTime started_at = 0;
  SimTime finished_at = 0;

  double CompletionFraction() const {
    if (work_total == 0) {
      return 1.0;
    }
    double f = static_cast<double>(work_done) / static_cast<double>(work_total);
    return f > 1.0 ? 1.0 : f;
  }
  uint64_t TotalIoPages() const { return io_read_pages + io_write_pages; }
  SimDuration Runtime() const {
    return finished ? finished_at - started_at : 0;
  }
};

class TaskRun {
 public:
  // Items one fetch (Algorithm 1) takes at most.
  static constexpr size_t kFetchBatch = 256;
  // Poll period: tasks fetch many times a second (§6.4), on their own timer,
  // so hints keep flowing even while the task's idle-class I/O is starved.
  static constexpr SimDuration kFetchInterval = Millis(20);
  // A chunk whose read fails transiently (device busy / latency spike) is
  // retried this many times, with a backoff that starts here and doubles
  // per consecutive retry, before the task skips it.
  static constexpr uint32_t kMaxRetries = 3;
  static constexpr SimDuration kRetryBackoff = Millis(10);

  // `duet` may be null for a task that never registers a session.
  TaskRun(std::string_view name, TaskTag tag, EventLoop* loop, DuetCore* duet);
  // Pending timer callbacks hold `this`.
  TaskRun(const TaskRun&) = delete;
  TaskRun& operator=(const TaskRun&) = delete;

  // ---- Lifecycle ----
  // Starts a run from scratch: fresh stats, a new epoch, and `on_finish` to
  // fire when the run finishes.
  void Begin(std::function<void()> on_finish = nullptr);
  // Takes the run's Duet session. A failed registration (e.g. the session
  // table is full) aborts with a message in every build type.
  void Register(Result<SessionId> sid);
  // Resolves the task's configured root directory in `ns`. A root that does
  // not resolve aborts with "task <name>: root <path>: <status>" in every
  // build type.
  InodeNo ResolveRoot(const Namespace& ns, std::string_view path) const;
  // Runs `fn` once after `delay` on the run's one timer, unless the run has
  // ended by then. Does nothing when the run has already ended.
  void Arm(SimDuration delay, std::function<void()> fn);
  // Calls `tick` every kFetchInterval until it returns false or the run
  // ends.
  void Poll(std::function<bool()> tick);
  void CancelTimer();
  void Deregister();
  // Records the finish, clears the crash-resume cursor, ends the run, then
  // fires on_finish.
  void Finish();
  // Ends the run without finishing it: cancels the timer, deregisters.
  void Stop();

  // After a transient failure of the chunk at `start`: while the retry
  // budget lasts, traces the retry, runs `again` after the backoff (unless
  // the run has ended by then) and returns true. Once the budget is spent,
  // renews it and returns false: the caller skips the chunk. A finished
  // chunk or a new run renews it too.
  bool RetryTransient(uint64_t start, std::function<void()> again);

  // Algorithm 1's fetch: drains the session's pending events, at most
  // kFetchBatch items per fetch.
  void Drain(InodePriorityQueue& queue);
  void Drain(const std::function<void(const DuetItem&)>& fn);

  // ---- Crash-resume cursor ----
  // Persists a `width`-word cursor under `key` in the durable image.
  void PersistCursor(DurableImage* image, std::string key, size_t width);
  // The cursor an interrupted run left, if persistence is on and one with
  // the right width survived.
  std::optional<std::vector<uint64_t>> SavedCursor() const;
  void SaveCursor(const std::vector<uint64_t>& words);

  bool running() const { return running_; }
  // A run's epoch. A run can end while one of its I/Os is still queued; if
  // the next run has begun by the time that completion arrives, `running()`
  // alone would let the stale callback fork a second processing chain.
  // Callbacks capture the epoch they were issued in and check live().
  uint64_t epoch() const { return epoch_; }
  bool live(uint64_t epoch) const { return running_ && epoch == epoch_; }
  SessionId sid() const { return sid_; }
  TaskStats& stats() { return stats_; }
  const TaskStats& stats() const { return stats_; }

  // ---- Trace ----
  void ChunkStarted(uint64_t start, uint64_t count) {
    Emit(obs::TraceKind::kChunkStarted, start, count);
  }
  void ChunkFinished(uint64_t start, uint64_t count) {
    chunk_retries_ = 0;
    chunks_->Add();
    Emit(obs::TraceKind::kChunkFinished, start, count);
  }
  // One repair round: `repaired` blocks rewritten, `unrecoverable` left bad.
  void Repairs(uint64_t repaired, uint64_t unrecoverable) {
    repairs_->Add(repaired);
    Emit(obs::TraceKind::kRepair, repaired, unrecoverable);
  }

 private:
  void Emit(obs::TraceKind kind, uint64_t a = 0, uint64_t b = 0) {
    obs_->trace.Emit(loop_->now(), obs::TraceLayer::kTask, kind, tag_, a, b);
  }

  std::string name_;
  EventLoop* loop_;
  DuetCore* duet_;
  obs::ObsContext* obs_;
  uint64_t tag_;
  obs::Counter* started_;
  obs::Counter* finished_;
  obs::Counter* chunks_;
  obs::Counter* repairs_;
  obs::Counter* retries_;
  obs::Counter* fetch_calls_;

  bool running_ = false;
  uint64_t epoch_ = 0;
  uint32_t chunk_retries_ = 0;  // consecutive transient retries of this chunk
  TaskStats stats_;
  std::function<void()> on_finish_;
  SessionId sid_ = kInvalidSession;
  EventId timer_ = kInvalidEvent;
  DurableImage* cursor_image_ = nullptr;
  std::string cursor_key_;
  size_t cursor_width_ = 0;
};

}  // namespace duet

#endif  // SRC_TASKS_TASK_RUN_H_
