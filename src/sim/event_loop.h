// Discrete-event simulation loop: a virtual clock plus a time-ordered queue
// of callbacks. Components (block device, writeback, workload generator,
// maintenance task runners) schedule events against one shared loop.
//
// Events scheduled for the same instant run in scheduling order (FIFO), which
// keeps the simulation deterministic.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/obs/obs.h"
#include "src/sim/time.h"

namespace duet {

using EventId = uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventLoop {
 public:
  // Every component that runs on this loop reports into `obs`, which must
  // outlive the loop and everything built on it.
  explicit EventLoop(obs::ObsContext& obs);
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }
  obs::ObsContext& obs() const { return *obs_; }

  // Schedules `fn` to run at absolute time `when` (clamped to now()).
  EventId ScheduleAt(SimTime when, std::function<void()> fn);

  // Schedules `fn` to run `delay` after the current time.
  EventId ScheduleAfter(SimDuration delay, std::function<void()> fn);

  // Cancels a pending event. Returns false if it already ran or was cancelled.
  bool Cancel(EventId id);

  // Runs events until the queue is empty. Returns the final time.
  SimTime Run();

  // Runs all events with time <= deadline, then advances the clock to
  // `deadline` (even if the queue still has later events).
  void RunUntil(SimTime deadline);

  // Runs a single event if one is pending. Returns false if the queue is
  // empty.
  bool RunOne();

  // Crash support: halts the loop for good. Run/RunUntil return immediately
  // (without advancing the clock further) and RunOne refuses to fire events.
  // Used by the crash injector to freeze the stack mid-run so the harness can
  // tear it down at the exact crash instant.
  void Halt() { halted_ = true; }
  bool halted() const { return halted_; }

  uint64_t pending_count() const { return pending_ids_.size(); }
  uint64_t executed_count() const { return executed_; }

 private:
  struct Entry {
    SimTime when;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.id > b.id;  // FIFO among same-time events
    }
  };

  // Pops cancelled entries off the heap top. Returns false if empty after.
  bool SkimCancelled();

  SimTime now_ = 0;
  EventId next_id_ = 1;
  uint64_t executed_ = 0;
  bool halted_ = false;
  // The stack's one context: every component built on this loop reads it
  // from obs() at construction.
  obs::ObsContext* obs_;
  obs::Counter* ctr_scheduled_;
  obs::Counter* ctr_fired_;
  obs::Counter* ctr_cancelled_;
  // Binary heap managed with push_heap/pop_heap over a pre-reserved vector:
  // same ordering as std::priority_queue, but storage is reused across the
  // run instead of re-growing, and the comparator stays inlined.
  std::vector<Entry> heap_;
  // Ids that are scheduled and not yet run or cancelled. A heap entry whose
  // id is absent here is a cancelled tombstone and is skipped.
  std::unordered_set<EventId> pending_ids_;
};

}  // namespace duet

#endif  // SRC_SIM_EVENT_LOOP_H_
