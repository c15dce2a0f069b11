#include "src/sim/event_loop.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace duet {

EventLoop::EventLoop(obs::ObsContext& obs)
    : obs_(&obs),
      ctr_scheduled_(obs_->metrics.GetCounter("sim.events.scheduled")),
      ctr_fired_(obs_->metrics.GetCounter("sim.events.fired")),
      ctr_cancelled_(obs_->metrics.GetCounter("sim.events.cancelled")) {
  // Typical stacks keep a few hundred events in flight; reserving up front
  // keeps the hot Schedule/RunOne path free of reallocation.
  heap_.reserve(4096);
  pending_ids_.reserve(4096);
}

EventId EventLoop::ScheduleAt(SimTime when, std::function<void()> fn) {
  assert(fn != nullptr);
  if (when < now_) {
    when = now_;
  }
  EventId id = next_id_++;
  heap_.push_back(Entry{when, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  pending_ids_.insert(id);
  ctr_scheduled_->Add();
  obs_->trace.Emit(now_, obs::TraceLayer::kSim, obs::TraceKind::kEventScheduled,
                   id, when);
  return id;
}

EventId EventLoop::ScheduleAfter(SimDuration delay, std::function<void()> fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool EventLoop::Cancel(EventId id) {
  if (pending_ids_.erase(id) == 0) {
    return false;
  }
  ctr_cancelled_->Add();
  obs_->trace.Emit(now_, obs::TraceLayer::kSim, obs::TraceKind::kEventCancelled,
                   id);
  return true;
}

bool EventLoop::SkimCancelled() {
  while (!heap_.empty() && pending_ids_.count(heap_.front().id) == 0) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return !heap_.empty();
}

bool EventLoop::RunOne() {
  if (halted_ || !SkimCancelled()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry top = std::move(heap_.back());
  heap_.pop_back();
  pending_ids_.erase(top.id);
  assert(top.when >= now_);
  now_ = top.when;
  ++executed_;
  ctr_fired_->Add();
  obs_->trace.Emit(now_, obs::TraceLayer::kSim, obs::TraceKind::kEventFired,
                   top.id);
  top.fn();
  return true;
}

SimTime EventLoop::Run() {
  while (RunOne()) {
  }
  return now_;
}

void EventLoop::RunUntil(SimTime deadline) {
  while (!halted_ && SkimCancelled() && heap_.front().when <= deadline) {
    RunOne();
  }
  if (halted_) {
    return;  // crash froze the clock at the halt instant
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace duet
