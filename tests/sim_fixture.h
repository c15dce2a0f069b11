// Shared test fixtures: event loop + block device + file system plumbing.
#ifndef TESTS_SIM_FIXTURE_H_
#define TESTS_SIM_FIXTURE_H_

#include <memory>

#include "src/block/block_device.h"
#include "src/block/disk_model.h"
#include "src/block/io_scheduler.h"
#include "src/sim/event_loop.h"

namespace duet {

// Deterministic fixed-latency disk for logic-focused tests.
class FixedLatencyModel : public DiskModel {
 public:
  explicit FixedLatencyModel(SimDuration latency = Millis(1),
                             uint64_t capacity = 1'000'000)
      : latency_(latency), capacity_(capacity) {}
  SimDuration ServiceTime(BlockNo, uint32_t, IoDir, BlockNo) const override {
    return latency_;
  }
  uint64_t capacity_blocks() const override { return capacity_; }
  const char* name() const override { return "fixed"; }

 private:
  SimDuration latency_;
  uint64_t capacity_;
};

struct SimRig {
  explicit SimRig(uint64_t capacity_blocks = 1'000'000,
                  SimDuration latency = Millis(1))
      : loop(obs),
        device(&loop, std::make_unique<FixedLatencyModel>(latency, capacity_blocks),
               std::make_unique<CfqScheduler>(Millis(2))) {}

  // Everything built on `loop` reports into `obs`.
  obs::ObsContext obs;
  EventLoop loop;
  BlockDevice device;
};

}  // namespace duet

#endif  // TESTS_SIM_FIXTURE_H_
