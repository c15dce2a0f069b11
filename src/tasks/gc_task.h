// Background garbage collector for logfs (paper §5.4), modeled on the F2fs
// cleaner: it wakes periodically, and if the device has been idle it scans a
// window of segments, picks the victim with the minimum cost, and cleans it.
//
// Opportunistic mode registers a Duet block task for Exists ∨ Flushed and
// maintains per-segment counters of cached valid blocks from the events; the
// cost function charges `valid - cached/2` blocks for the move instead of
// `valid` (reads and writes weighed equally; cached blocks save the read).
// The done primitives are not used — a segment can always become dirty again.
#ifndef SRC_TASKS_GC_TASK_H_
#define SRC_TASKS_GC_TASK_H_

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/duet/duet_core.h"
#include "src/logfs/logfs.h"
#include "src/tasks/task_run.h"
#include "src/util/stats.h"

namespace duet {

struct GcConfig {
  bool use_duet = false;
};

class GcTask {
 public:
  // Cleaner wake-up period.
  static constexpr SimDuration kWakeInterval = Millis(100);
  // Device idle time (no best-effort I/O) before a wake-up cleans.
  static constexpr SimDuration kIdleThreshold = Millis(10);
  // Victim-search window (§5.4).
  static constexpr uint64_t kWindowSegments = 4096;
  // F2fs gates *when* the cleaner runs on idleness, but its reads are
  // ordinary kernel I/O, not idle-class.
  static constexpr IoClass kIoClass = IoClass::kBestEffort;

  GcTask(LogFs* fs, DuetCore* duet, GcConfig config);
  ~GcTask();

  void Start();
  // The cleaner runs until stopped, so stopping finishes the run.
  void Stop();

  const TaskStats& stats() const { return run_.stats(); }
  // Per-segment cleaning time distribution (paper Table 6).
  const RunningStats& cleaning_time_ms() const { return cleaning_time_ms_; }
  uint64_t segments_cleaned() const { return segments_cleaned_; }
  // Ground-truth check of the event-maintained counters (tests).
  int64_t CachedCounter(SegmentNo seg) const { return cached_[seg]; }

 private:
  void Tick();
  void DrainDuetEvents();
  double VictimCost(SegmentNo seg, const SegmentInfo& info) const;

  LogFs* fs_;
  DuetCore* duet_;
  GcConfig config_;
  TaskRun run_;
  bool cleaning_ = false;
  SegmentNo window_cursor_ = 0;
  std::vector<int64_t> cached_;  // per-segment cached-valid-block counters
  // Which segment each cached page was last counted against, so moves adjust
  // both the old and the new segment's counters (§5.4).
  struct PageKeyHash {
    size_t operator()(const std::pair<InodeNo, PageIdx>& k) const {
      return std::hash<uint64_t>()(k.first * 0x9e3779b97f4a7c15ULL ^ k.second);
    }
  };
  std::unordered_map<std::pair<InodeNo, PageIdx>, SegmentNo, PageKeyHash> counted_;
  uint64_t segments_cleaned_ = 0;
  RunningStats cleaning_time_ms_;
};

}  // namespace duet

#endif  // SRC_TASKS_GC_TASK_H_
