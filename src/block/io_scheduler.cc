#include "src/block/io_scheduler.h"

#include <utility>

namespace duet {

CfqScheduler::CfqScheduler(SimDuration idle_grace) : idle_grace_(idle_grace) {}

void CfqScheduler::Enqueue(IoRequest request) {
  if (request.io_class == IoClass::kBestEffort) {
    best_effort_.push_back(std::move(request));
  } else {
    idle_.push_back(std::move(request));
  }
}

DispatchDecision CfqScheduler::Dispatch(SimTime now, SimTime last_best_effort_activity) {
  DispatchDecision decision;
  if (!best_effort_.empty()) {
    decision.request = std::move(best_effort_.front());
    best_effort_.pop_front();
    return decision;
  }
  if (idle_.empty()) {
    return decision;  // nothing queued at all
  }
  SimTime eligible_at = last_best_effort_activity + idle_grace_;
  if (now >= eligible_at) {
    decision.request = std::move(idle_.front());
    idle_.pop_front();
  } else {
    decision.retry_at = eligible_at;
  }
  return decision;
}

void DeadlineScheduler::Enqueue(IoRequest request) {
  queue_.push_back(std::move(request));
}

DispatchDecision DeadlineScheduler::Dispatch(SimTime /*now*/,
                                             SimTime /*last_best_effort_activity*/) {
  DispatchDecision decision;
  if (!queue_.empty()) {
    decision.request = std::move(queue_.front());
    queue_.pop_front();
  }
  return decision;
}

}  // namespace duet
