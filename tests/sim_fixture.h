// Shared test fixtures: event loop + block device + file system plumbing.
#ifndef TESTS_SIM_FIXTURE_H_
#define TESTS_SIM_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "src/block/block_device.h"
#include "src/block/disk_model.h"
#include "src/block/io_scheduler.h"
#include "src/obs/trace.h"
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

// One device request as the block layer's submit trace event records it.
struct Submitted {
  BlockNo block = 0;
  uint64_t count = 0;
  IoDir dir = IoDir::kRead;

  bool operator==(const Submitted&) const = default;
};
inline void PrintTo(const Submitted& r, std::ostream* os) {
  *os << (r.dir == IoDir::kWrite ? "write" : "read") << " [" << r.block << ", +" << r.count
      << ")";
}

// Records every device request submitted while it lives, in submission
// order, from the submit trace events of `tracer`.
class SubmitLog : public obs::TraceSink {
 public:
  explicit SubmitLog(obs::Tracer& tracer) : tracer_(tracer) { tracer_.AddSink(this); }
  ~SubmitLog() override { tracer_.RemoveSink(this); }
  SubmitLog(const SubmitLog&) = delete;
  SubmitLog& operator=(const SubmitLog&) = delete;

  void OnTraceEvent(const obs::TraceEvent& event) override {
    if (event.kind == obs::TraceKind::kIoSubmit) {
      requests_.push_back(Submitted{event.a, event.b,
                                    (event.c & 1) != 0 ? IoDir::kWrite : IoDir::kRead});
    }
  }
  // The requests recorded in direction `dir`.
  std::vector<Submitted> Of(IoDir dir) const {
    std::vector<Submitted> out;
    for (const Submitted& r : requests_) {
      if (r.dir == dir) {
        out.push_back(r);
      }
    }
    return out;
  }
  void Clear() { requests_.clear(); }

 private:
  obs::Tracer& tracer_;
  std::vector<Submitted> requests_;
};

// The runs of consecutive block numbers in `blocks`, in order, as `dir`
// requests.
inline std::vector<Submitted> RunsOf(const std::vector<BlockNo>& blocks, IoDir dir) {
  std::vector<Submitted> runs;
  for (BlockNo b : blocks) {
    if (!runs.empty() && runs.back().block + runs.back().count == b) {
      ++runs.back().count;
    } else {
      runs.push_back(Submitted{b, 1, dir});
    }
  }
  return runs;
}

}  // namespace duet

#endif  // TESTS_SIM_FIXTURE_H_
