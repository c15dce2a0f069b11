// Replayable fault injection: arms a FaultPlan against the event loop and
// serves as the block device's error model.
//
// Lifecycle of a fault:
//  * latent sector error — the block becomes unreadable at its scheduled
//    time; every read of it fails (detection happens at the device) until a
//    write rewrites the sector (disk firmware remap semantics);
//  * silent bit rot — the on-disk content is flipped through the corruption
//    sink without touching the stored checksum; only a checksum verification
//    on a later read detects it;
//  * torn write — armed at its scheduled time; the next write that covers
//    the block persists corrupt content (checksum of the intended data,
//    garbage on the platter);
//  * transient — a region of the device fails reads with kBusy and adds a
//    latency spike for a bounded window; callers are expected to retry.
//
// Every fault is tracked from injection to resolution, producing the
// harness metrics: detected / repaired / masked / unrecoverable counts and
// mean time to detect (MTTD).
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/obs/obs.h"
#include "src/sim/event_loop.h"
#include "src/util/status.h"

namespace duet {

// Fault accounting lives in the registry of the injector's loop's context
// (fault.injected, .detected, .repaired, .masked, ...). These
// derive the two composite figures the reports print from a run's snapshot.

// Faults injected but neither detected nor masked (still silent).
uint64_t UndetectedFaults(const obs::MetricsSnapshot& m);
// Mean time to detect: summed injection-to-detection latency over the
// number of detections; 0 when nothing was detected.
double MeanTimeToDetectSeconds(const obs::MetricsSnapshot& m);

class FaultInjector {
 public:
  FaultInjector(EventLoop* loop, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // The sink flips on-disk content without updating the stored checksum.
  // Registered by the file system (FileSystem::AttachFaultInjector).
  void SetCorruptionSink(std::function<void(BlockNo, bool both_copies)> sink);
  // Activation filter: latent/rot events targeting blocks where this returns
  // false are skipped (e.g. unallocated blocks hold no data to corrupt).
  void SetTargetFilter(std::function<bool(BlockNo)> filter);

  // Schedules every plan event on the loop. Call once, after the sink and
  // filter are registered and the initial file set is populated.
  void Start();

  // ---- Crash points ----
  // The handler runs exactly once, at the crash instant; it is expected to
  // freeze the durable image (BlockDevice::CrashFreeze) and halt the event
  // loop so the harness can tear the stack down. A kCrash plan event with no
  // handler registered only counts in fault.crashes (benign in crash-unaware
  // rigs).
  void SetCrashHandler(std::function<void()> handler);
  // Explicit crash points, usable with or without a plan: at an absolute
  // sim-time, or when the device dispatches its Nth op (1-based).
  void ScheduleCrashAtTime(SimTime at);
  void ScheduleCrashAtOp(uint64_t nth_op) { crash_at_op_ = nth_op; }
  bool crashed() const { return crashed_; }

  // ---- Device-side consultation ----
  // Extra service latency for a request (transient spikes; reads only).
  SimDuration ExtraLatency(BlockNo block, uint32_t count, bool is_read, SimTime now);
  // Outcome of reading [block, block+count): kBusy if a transient window
  // covers the range (whole request fails, retryable), kIoError if any block
  // has a latent error (failed blocks appended to `failed`, ascending), Ok
  // otherwise. Latent failures count as detected — the device observed them.
  Status OnRead(BlockNo block, uint32_t count, SimTime now,
                std::vector<BlockNo>* failed);
  // Called after a write to [block, block+count) has been applied by the
  // file system: rewriting a sector clears its active fault (repaired if it
  // had been detected, masked otherwise), then any armed torn write for the
  // range corrupts the freshly written content through the sink.
  void OnWriteApplied(BlockNo block, uint32_t count, SimTime now);
  // Called on every op the device dispatches (crash-at-op addressing).
  void OnDeviceOp(uint64_t ops_dispatched, SimTime now);

  // ---- Consumer-side notifications ----
  // A checksum verification caught corrupt content in `block`.
  void NoteCorruptionDetected(BlockNo block);
  // A repair attempt found no good copy; the fault stays active.
  void NoteUnrecoverable(BlockNo block);
  // The block was freed (COW rewrite, GC move, unlink): its fault can no
  // longer serve corrupt data.
  void OnBlockFreed(BlockNo block);

  bool HasActiveFault(BlockNo block) const;
  uint64_t active_fault_count() const { return active_.size(); }
  const FaultPlan& plan() const { return plan_; }

 private:
  struct ActiveFault {
    uint32_t kind = 0;
    SimTime injected_at = 0;
    bool detected = false;
    bool unrecoverable = false;
  };
  struct TransientWindow {
    BlockNo start = 0;
    uint32_t span = 1;
    SimTime until = 0;
    SimDuration latency = 0;
  };

  void Activate(const FaultEvent& event);
  void ResolveFault(BlockNo block, bool via_rewrite);
  void TriggerCrash(uint64_t source_tag);

  EventLoop* loop_;
  FaultPlan plan_;
  obs::ObsContext* obs_;
  obs::Counter* ctr_injected_;       // latent/rot activated + torn applied
  obs::Counter* ctr_detected_;       // surfaced via read failure or checksum
  obs::Counter* ctr_repaired_;       // detected, then cleared by rewrite/free
  obs::Counter* ctr_masked_;         // cleared by rewrite/free before detection
  obs::Counter* ctr_unrecoverable_;  // detected, no good copy to repair from
  obs::Counter* ctr_read_errors_;         // block reads failed with kIoError
  obs::Counter* ctr_transient_failures_;  // requests failed with kBusy
  obs::Counter* ctr_crashes_;             // power-loss events triggered
  obs::Counter* ctr_skipped_;             // activation hit a block not in use
  obs::Counter* ctr_torn_armed_;          // torn events waiting for a write
  obs::Counter* ctr_transient_windows_;
  obs::Counter* ctr_detect_latency_ns_;   // summed injection-to-detection time
  std::function<void(BlockNo, bool)> sink_;
  std::function<bool(BlockNo)> filter_;
  std::function<void()> crash_handler_;
  uint64_t crash_at_op_ = 0;  // 0 = disabled
  bool crashed_ = false;
  bool started_ = false;
  std::unordered_map<BlockNo, ActiveFault> active_;
  std::unordered_map<BlockNo, SimTime> armed_torn_;  // block -> armed at
  std::vector<TransientWindow> transients_;
};

}  // namespace duet

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
