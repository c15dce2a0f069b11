#include "src/fault/fault_plan.h"

#include <algorithm>

#include "src/util/crc32c.h"
#include "src/util/rng.h"

namespace duet {

FaultPlan FaultPlan::Generate(uint64_t seed, const FaultPlanConfig& config,
                              uint64_t capacity_blocks) {
  FaultPlan plan;
  plan.config_ = config;
  if (config.faults_per_second <= 0 || (config.kinds & kFaultAllKinds) == 0 ||
      capacity_blocks == 0) {
    return plan;
  }
  BlockNo lo = std::min<BlockNo>(config.range_lo, capacity_blocks - 1);
  BlockNo hi = config.range_hi == 0 ? capacity_blocks
                                    : std::min<BlockNo>(config.range_hi, capacity_blocks);
  if (hi <= lo) {
    hi = lo + 1;
  }

  std::vector<uint32_t> kinds;
  for (uint32_t k : {kFaultLatent, kFaultBitRot, kFaultTornWrite, kFaultTransient,
                     kFaultCrash}) {
    if (config.kinds & k) {
      kinds.push_back(k);
    }
  }

  Rng rng(seed);
  double t_seconds = 0;
  const double window_seconds = ToSeconds(config.window);
  bool crash_scheduled = false;
  while (true) {
    t_seconds += rng.Exponential(1.0 / config.faults_per_second);
    if (t_seconds >= window_seconds) {
      break;
    }
    FaultEvent event;
    event.at = FromSeconds(t_seconds);
    event.kind = kinds[rng.Uniform(kinds.size())];
    if (event.kind == kFaultCrash) {
      // A machine loses power at most once per plan; later arrivals re-draw
      // nothing (events after a crash would never fire anyway).
      if (crash_scheduled) {
        continue;
      }
      crash_scheduled = true;
      event.block = 0;
      plan.events_.push_back(event);
      continue;
    }
    bool use_hot = !config.hot_blocks.empty() && rng.Chance(config.hot_fraction);
    event.block = use_hot ? config.hot_blocks[rng.Uniform(config.hot_blocks.size())]
                          : lo + rng.Uniform(hi - lo);
    if (event.kind == kFaultTransient) {
      event.span = config.transient_span_blocks;
    }
    if (event.kind == kFaultBitRot) {
      event.both_copies = rng.Chance(config.rot_both_copies_fraction);
    }
    plan.events_.push_back(event);
  }
  return plan;
}

FaultPlan FaultPlan::FromEvents(const FaultPlanConfig& config,
                                std::vector<FaultEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  FaultPlan plan;
  plan.config_ = config;
  plan.events_ = std::move(events);
  return plan;
}

uint32_t FaultPlan::Fingerprint() const {
  uint32_t crc = 0;
  for (const FaultEvent& e : events_) {
    crc = Crc32c(&e.at, sizeof(e.at), crc);
    crc = Crc32c(&e.kind, sizeof(e.kind), crc);
    crc = Crc32c(&e.block, sizeof(e.block), crc);
    crc = Crc32c(&e.span, sizeof(e.span), crc);
    crc = Crc32c(&e.both_copies, sizeof(e.both_copies), crc);
  }
  return crc;
}

}  // namespace duet
