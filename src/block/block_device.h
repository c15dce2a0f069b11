// Simulated block device: single-spindle service loop driven by the event
// loop, a pluggable scheduler and disk model, and busy-time accounting split
// by I/O class (the basis of the paper's iostat-style %util metric).
#ifndef SRC_BLOCK_BLOCK_DEVICE_H_
#define SRC_BLOCK_BLOCK_DEVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/block/disk_model.h"
#include "src/block/durable_image.h"
#include "src/block/io_request.h"
#include "src/block/io_scheduler.h"
#include "src/obs/obs.h"
#include "src/sim/event_loop.h"
#include "src/util/types.h"

namespace duet {

class FaultInjector;

// Snapshot of a block's on-platter content at flush-commit time, supplied by
// the file system (the owner of the simulated platter array).
struct DurableContent {
  uint64_t token = 0;
  uint32_t csum = 0;
  InodeNo ino = kInvalidInode;
  PageIdx idx = 0;
  bool in_use = false;
};

// Per-I/O-class accounting, which the metrics registry does not split by
// class. Failures, flushes and durable commits are registry counters only
// (block.failed.*, block.flushes, block.durable.committed).
struct DeviceStats {
  // Indexed by [IoClass][IoDir].
  uint64_t ops[2][2] = {{0, 0}, {0, 0}};
  uint64_t blocks[2][2] = {{0, 0}, {0, 0}};
  // Device busy time attributable to each class.
  SimDuration busy[2] = {0, 0};

  uint64_t TotalOps(IoClass c) const {
    return ops[static_cast<int>(c)][0] + ops[static_cast<int>(c)][1];
  }
  uint64_t TotalBlocks(IoClass c) const {
    return blocks[static_cast<int>(c)][0] + blocks[static_cast<int>(c)][1];
  }
  SimDuration TotalBusy() const { return busy[0] + busy[1]; }
};

class BlockDevice {
 public:
  BlockDevice(EventLoop* loop, std::unique_ptr<DiskModel> model,
              std::unique_ptr<IoScheduler> scheduler);

  // Queues a request; `request.done` fires when the device completes it.
  void Submit(IoRequest request);

  // ---- Durability boundary ----

  // Attaches the durable image (owned by the harness so it survives stack
  // teardown) and the content provider the device queries when a write
  // completes — the platter gets the data the write carried, not whatever the
  // host thinks of the block by the time a barrier arrives. Writes completed
  // without a subsequent Flush() stay volatile: they model the drive write
  // cache and are lost on crash.
  void SetDurableImage(DurableImage* image) { image_ = image; }
  DurableImage* durable_image() const { return image_; }
  void SetDurableContentProvider(std::function<DurableContent(BlockNo)> provider) {
    provider_ = std::move(provider);
  }

  // Issues a flush/barrier op through the IoScheduler. It dispatches only
  // after every write submitted before this call has completed; on
  // completion the whole volatile write set (as of completion time) is
  // committed into the durable image, then `done` fires.
  void Flush(IoClass io_class, std::function<void(const IoResult&)> done);

  // Crash: if a flush was mid-service, a deterministic prefix of the write
  // cache reaches the platter with the last block of the prefix torn; then
  // the image freezes. Everything still volatile is lost.
  void CrashFreeze();

  // Blocks written but not yet covered by a completed Flush().
  uint64_t VolatileDirtyBlocks() const { return volatile_index_.size(); }
  // Data + flush ops dispatched to the platter (crash-at-op addressing).
  uint64_t ops_dispatched() const { return ops_dispatched_; }

  // Attaches the error model. The injector is consulted on every dispatch
  // (latency spikes) and completion (read failures, torn-write application).
  // Pass nullptr to detach. Not owned; must outlive the device's I/O.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  const DeviceStats& stats() const { return stats_; }
  const DiskModel& model() const { return *model_; }
  const IoScheduler& scheduler() const { return *scheduler_; }
  uint64_t capacity_blocks() const { return model_->capacity_blocks(); }

  bool busy() const { return busy_; }
  // Requests queued or in flight, any class.
  uint64_t InFlightOrQueued() const;
  // Last instant a best-effort request was submitted or completed.
  SimTime last_best_effort_activity() const { return last_best_effort_activity_; }

  // Fraction of [since, loop->now()) the device spent servicing best-effort
  // requests — the paper's "device utilization" when no maintenance runs.
  double BestEffortUtilizationSince(SimTime since, SimDuration busy_at_since) const;

 private:
  struct PendingFlush {
    uint64_t barrier_serial = 0;  // writes with serial <= this must complete
    uint64_t writes_remaining = 0;
    IoClass io_class = IoClass::kBestEffort;
    std::function<void(const IoResult&)> done;
  };

  void TryDispatch();
  void Complete(IoRequest request, SimDuration service_time);
  void EnqueueFlushRequest(PendingFlush flush);
  // Captures a completed write's content into the drive write cache.
  void NoteVolatileWrite(BlockNo block);
  // Commits the volatile write set into the image; returns blocks committed.
  uint64_t CommitVolatile();

  EventLoop* loop_;
  std::unique_ptr<DiskModel> model_;
  std::unique_ptr<IoScheduler> scheduler_;
  FaultInjector* injector_ = nullptr;
  DurableImage* image_ = nullptr;
  std::function<DurableContent(BlockNo)> provider_;

  bool busy_ = false;
  uint64_t in_flight_ = 0;
  BlockNo head_ = 0;
  // Drive write cache: each completed write's content, captured at completion
  // time and drained to the image in completion order at the next barrier
  // (commit sequence numbers feed the recovery replay, so the order must
  // match write order and be deterministic). A block rewritten while volatile
  // supersedes its earlier entry and moves to the back, as a real write cache
  // coalesces.
  struct VolatileWrite {
    BlockNo block = kInvalidBlock;  // kInvalidBlock: superseded entry
    DurableContent content;
  };
  std::vector<VolatileWrite> volatile_writes_;
  // Live block -> entry index. Only point lookups — commit/replay order
  // comes from volatile_writes_ itself, so no sorted container is needed.
  std::unordered_map<BlockNo, size_t> volatile_index_;
  std::deque<PendingFlush> waiting_flushes_;
  uint64_t write_serial_ = 0;      // last serial stamped on a write
  uint64_t outstanding_writes_ = 0;
  uint64_t ops_dispatched_ = 0;
  bool flush_in_service_ = false;
  SimTime last_best_effort_activity_ = 0;
  EventId retry_event_ = kInvalidEvent;
  DeviceStats stats_;
  obs::ObsContext* obs_;
  obs::Counter* ctr_submit_;
  obs::Counter* ctr_complete_;
  obs::Counter* ctr_failed_requests_;
  obs::Counter* ctr_failed_blocks_;
  obs::Counter* ctr_flushes_;
  obs::Counter* ctr_blocks_committed_;
  obs::LogHistogram* hist_read_latency_us_;
  obs::LogHistogram* hist_write_latency_us_;
};

}  // namespace duet

#endif  // SRC_BLOCK_BLOCK_DEVICE_H_
