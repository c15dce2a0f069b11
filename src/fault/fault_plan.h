// Deterministic fault schedules for the simulated storage stack.
//
// A FaultPlan is a pure function of (seed, FaultPlanConfig, device capacity):
// the same inputs always produce a byte-identical schedule, so any failure
// scenario can be replayed exactly. The plan is a time-ordered list of fault
// events; the FaultInjector arms them against the event loop and the block
// device consults it on every request (the error path the paper's motivating
// tasks — scrubbing, backup verification — exist to exercise).
#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"
#include "src/util/types.h"

namespace duet {

// Fault kinds, usable as a bitmask in FaultPlanConfig::kinds.
inline constexpr uint32_t kFaultLatent = 1u << 0;     // unreadable sector
inline constexpr uint32_t kFaultBitRot = 1u << 1;     // silent data corruption
inline constexpr uint32_t kFaultTornWrite = 1u << 2;  // next write persists torn
inline constexpr uint32_t kFaultTransient = 1u << 3;  // read timeout/latency spike
inline constexpr uint32_t kFaultCrash = 1u << 4;      // power loss: volatile state gone
inline constexpr uint32_t kFaultAllKinds =
    kFaultLatent | kFaultBitRot | kFaultTornWrite | kFaultTransient | kFaultCrash;

struct FaultPlanConfig {
  uint32_t kinds = kFaultLatent | kFaultBitRot;
  // Mean fault arrival rate (Poisson process over the window).
  double faults_per_second = 0;
  SimDuration window = Seconds(18);
  // Target block range [range_lo, range_hi); range_hi = 0 means the whole
  // device. Lets scenarios concentrate faults on a file set or a disk zone.
  BlockNo range_lo = 0;
  BlockNo range_hi = 0;
  // Temperature bias: this fraction of faults is drawn from `hot_blocks`
  // (recently/frequently accessed data) instead of uniformly from the range.
  std::vector<BlockNo> hot_blocks;
  double hot_fraction = 0;
  // Fraction of bit-rot faults that also corrupt the redundant copy (cowfs
  // DUP profile), making them unrecoverable unless the page is cached.
  double rot_both_copies_fraction = 0;
  // Transient spikes: affected region size, added latency, and how long the
  // region keeps failing reads.
  uint32_t transient_span_blocks = 1024;
  SimDuration transient_latency = Millis(40);
  SimDuration transient_duration = Millis(200);
};

struct FaultEvent {
  SimTime at = 0;
  uint32_t kind = 0;
  BlockNo block = 0;
  // kFaultTransient: blocks [block, block+span) are affected.
  uint32_t span = 1;
  // kFaultBitRot: corrupt the redundant copy as well.
  bool both_copies = false;

  bool operator==(const FaultEvent&) const = default;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // Builds the deterministic schedule. Identical (seed, config, capacity)
  // inputs yield identical plans (the replay guarantee).
  static FaultPlan Generate(uint64_t seed, const FaultPlanConfig& config,
                            uint64_t capacity_blocks);

  // Hand-authored schedule (directed failure scenarios, tests). Events are
  // sorted by time; `config` supplies the transient parameters.
  static FaultPlan FromEvents(const FaultPlanConfig& config,
                              std::vector<FaultEvent> events);

  const std::vector<FaultEvent>& events() const { return events_; }
  const FaultPlanConfig& config() const { return config_; }
  bool empty() const { return events_.empty(); }

  // Stable fingerprint of the schedule (CRC32C over the event list), used by
  // the determinism property test and printed by benches for replay checks.
  uint32_t Fingerprint() const;

 private:
  FaultPlanConfig config_;
  std::vector<FaultEvent> events_;
};

}  // namespace duet

#endif  // SRC_FAULT_FAULT_PLAN_H_
