// I/O schedulers. The paper's results hinge on maintenance I/O running in the
// Idle class under CFQ (§6.1.3): idle-class requests are dispatched only
// after the device has seen no best-effort activity for a grace period, so
// maintenance never competes with the foreground workload for the device.
// §6.5 also evaluates the Deadline scheduler, which has no priority classes.
#ifndef SRC_BLOCK_IO_SCHEDULER_H_
#define SRC_BLOCK_IO_SCHEDULER_H_

#include <deque>
#include <optional>

#include "src/block/io_request.h"
#include "src/sim/time.h"

namespace duet {

// Result of a dispatch attempt: either a request to service now, or a time
// at which dispatching should be retried (used to honour the idle grace
// period), or neither (queue empty; device sleeps until the next Submit).
struct DispatchDecision {
  std::optional<IoRequest> request;
  std::optional<SimTime> retry_at;
};

class IoScheduler {
 public:
  virtual ~IoScheduler() = default;

  virtual void Enqueue(IoRequest request) = 0;

  // Called by the device when it is free. `now` is the current time and
  // `last_best_effort_activity` the last time a best-effort request was
  // submitted or completed.
  virtual DispatchDecision Dispatch(SimTime now, SimTime last_best_effort_activity) = 0;

  virtual const char* name() const = 0;
};

// CFQ-like scheduler with two classes. Best-effort requests dispatch FIFO
// and always take precedence. Idle-class requests dispatch only when the
// best-effort queue is empty and the device has had no best-effort activity
// for `idle_grace`.
class CfqScheduler : public IoScheduler {
 public:
  explicit CfqScheduler(SimDuration idle_grace = Millis(2));

  void Enqueue(IoRequest request) override;
  DispatchDecision Dispatch(SimTime now, SimTime last_best_effort_activity) override;
  const char* name() const override { return "cfq"; }

  SimDuration idle_grace() const { return idle_grace_; }

 private:
  SimDuration idle_grace_;
  std::deque<IoRequest> best_effort_;
  std::deque<IoRequest> idle_;
};

// Deadline-like scheduler: single FIFO, no priority classes — maintenance
// I/O competes head-on with the workload (§6.5 "I/O prioritization").
class DeadlineScheduler : public IoScheduler {
 public:
  void Enqueue(IoRequest request) override;
  DispatchDecision Dispatch(SimTime now, SimTime last_best_effort_activity) override;
  const char* name() const override { return "deadline"; }

 private:
  std::deque<IoRequest> queue_;
};

// Trivial FIFO, used by unit tests.
class NoopScheduler : public DeadlineScheduler {
 public:
  const char* name() const override { return "noop"; }
};

}  // namespace duet

#endif  // SRC_BLOCK_IO_SCHEDULER_H_
