#include "src/block/block_device.h"

#include <cassert>
#include <utility>

#include "src/fault/fault_injector.h"

namespace duet {
namespace {

// Barrier service cost: a fixed firmware overhead plus per-dirty-block drive
// cache writeout time.
constexpr SimDuration kFlushBaseLatency = Micros(300);
constexpr SimDuration kFlushPerBlockLatency = Micros(2);

}  // namespace

BlockDevice::BlockDevice(EventLoop* loop, std::unique_ptr<DiskModel> model,
                         std::unique_ptr<IoScheduler> scheduler)
    : loop_(loop),
      model_(std::move(model)),
      scheduler_(std::move(scheduler)),
      obs_(obs::CurrentObs()),
      ctr_submit_(obs_->metrics.GetCounter("block.submits")),
      ctr_complete_(obs_->metrics.GetCounter("block.completions")),
      ctr_failed_requests_(obs_->metrics.GetCounter("block.failed.requests")),
      ctr_failed_blocks_(obs_->metrics.GetCounter("block.failed.blocks")),
      ctr_flushes_(obs_->metrics.GetCounter("block.flushes")),
      ctr_blocks_committed_(obs_->metrics.GetCounter("block.durable.committed")),
      hist_read_latency_us_(obs_->metrics.GetHistogram("block.read.latency_us")),
      hist_write_latency_us_(obs_->metrics.GetHistogram("block.write.latency_us")) {
  assert(loop_ != nullptr && model_ != nullptr && scheduler_ != nullptr);
}

void BlockDevice::Submit(IoRequest request) {
  assert(request.block + request.count <= model_->capacity_blocks());
  if (request.io_class == IoClass::kBestEffort) {
    last_best_effort_activity_ = loop_->now();
  }
  if (!request.is_flush && request.dir == IoDir::kWrite) {
    request.serial = ++write_serial_;
    ++outstanding_writes_;
  }
  ctr_submit_->Add();
  obs_->trace.Emit(loop_->now(), obs::TraceLayer::kBlock,
                   obs::TraceKind::kIoSubmit, request.block, request.count,
                   (static_cast<uint64_t>(request.io_class) << 1) |
                       static_cast<uint64_t>(request.dir));
  scheduler_->Enqueue(std::move(request));
  TryDispatch();
}

void BlockDevice::Flush(IoClass io_class, std::function<void(const IoResult&)> done) {
  PendingFlush flush;
  flush.barrier_serial = write_serial_;
  flush.writes_remaining = outstanding_writes_;
  flush.io_class = io_class;
  flush.done = std::move(done);
  if (flush.writes_remaining == 0) {
    EnqueueFlushRequest(std::move(flush));
    return;
  }
  waiting_flushes_.push_back(std::move(flush));
}

void BlockDevice::EnqueueFlushRequest(PendingFlush flush) {
  IoRequest req;
  req.block = 0;
  req.count = 0;
  req.dir = IoDir::kWrite;
  req.io_class = flush.io_class;
  req.is_flush = true;
  req.consult_faults = false;
  req.done = std::move(flush.done);
  Submit(std::move(req));
}

void BlockDevice::NoteVolatileWrite(BlockNo block) {
  if (image_ == nullptr || !provider_) {
    return;  // no durability boundary attached
  }
  // Capture now: the write cache holds the data this write carried. By the
  // time a barrier drains it, the host may have reallocated the block — the
  // platter must still get what was written.
  DurableContent c = provider_(block);
  if (!c.in_use) {
    // The host reallocated the block while the write was in flight. Whatever
    // barrier covers this write also covers the successor the rewrite
    // produced (the cache was still dirty), so the stale record must not
    // reach the image — it could resurrect freed data at recovery.
    return;
  }
  auto it = volatile_index_.find(block);
  if (it != volatile_index_.end()) {
    volatile_writes_[it->second].block = kInvalidBlock;  // superseded
  }
  volatile_index_[block] = volatile_writes_.size();
  volatile_writes_.push_back(VolatileWrite{block, c});
}

uint64_t BlockDevice::CommitVolatile() {
  uint64_t committed = 0;
  if (image_ != nullptr) {
    for (const VolatileWrite& w : volatile_writes_) {
      if (w.block == kInvalidBlock) {
        continue;  // superseded by a later rewrite of the same block
      }
      image_->Commit(w.block, w.content.token, w.content.csum, w.content.ino,
                     w.content.idx);
      ++committed;
    }
  }
  volatile_writes_.clear();
  volatile_index_.clear();
  return committed;
}

void BlockDevice::CrashFreeze() {
  if (image_ == nullptr) {
    return;
  }
  if (flush_in_service_) {
    // Power failed mid-barrier: a deterministic prefix of the write cache
    // reached the platter (in write order, as the cache drains), and the
    // final block of the prefix is torn. These are exactly the blocks
    // straddling the durability boundary — recovery must detect the tear via
    // the stored checksum and discard the record.
    size_t prefix = (volatile_index_.size() + 1) / 2;
    size_t done = 0;
    BlockNo last = kInvalidBlock;
    for (const VolatileWrite& w : volatile_writes_) {
      if (done >= prefix) {
        break;
      }
      if (w.block == kInvalidBlock) {
        continue;
      }
      image_->Commit(w.block, w.content.token, w.content.csum, w.content.ino,
                     w.content.idx);
      last = w.block;
      ++done;
    }
    if (last != kInvalidBlock) {
      image_->TearToken(last);
    }
  }
  image_->Freeze();
}

uint64_t BlockDevice::InFlightOrQueued() const {
  return in_flight_ + scheduler_->QueuedCount(IoClass::kBestEffort) +
         scheduler_->QueuedCount(IoClass::kIdle);
}

void BlockDevice::TryDispatch() {
  if (busy_) {
    return;
  }
  DispatchDecision decision = scheduler_->Dispatch(loop_->now(), last_best_effort_activity_);
  if (decision.request.has_value()) {
    if (retry_event_ != kInvalidEvent) {
      loop_->Cancel(retry_event_);
      retry_event_ = kInvalidEvent;
    }
    busy_ = true;
    ++in_flight_;
    IoRequest req = std::move(*decision.request);
    SimDuration service;
    if (req.is_flush) {
      // Barrier cost: drive-cache flush time scales with the dirty set.
      service = kFlushBaseLatency +
                kFlushPerBlockLatency * static_cast<SimDuration>(volatile_index_.size());
      flush_in_service_ = true;
    } else {
      service = model_->ServiceTime(req.block, req.count, req.dir, head_);
      if (injector_ != nullptr) {
        service += injector_->ExtraLatency(req.block, req.count,
                                           req.dir == IoDir::kRead, loop_->now());
      }
    }
    ++ops_dispatched_;
    if (injector_ != nullptr) {
      // Crash-at-op addressing: may freeze the image and halt the loop, in
      // which case the completion below never fires — as intended.
      injector_->OnDeviceOp(ops_dispatched_, loop_->now());
    }
    loop_->ScheduleAfter(service, [this, r = std::move(req), service]() mutable {
      Complete(std::move(r), service);
    });
    return;
  }
  if (decision.retry_at.has_value()) {
    // Replace any earlier retry alarm; the grace deadline may have moved.
    if (retry_event_ != kInvalidEvent) {
      loop_->Cancel(retry_event_);
    }
    retry_event_ = loop_->ScheduleAt(*decision.retry_at, [this]() {
      retry_event_ = kInvalidEvent;
      TryDispatch();
    });
  }
}

void BlockDevice::Complete(IoRequest request, SimDuration service_time) {
  int c = static_cast<int>(request.io_class);
  int d = static_cast<int>(request.dir);
  if (request.is_flush) {
    stats_.busy[static_cast<size_t>(c)] += service_time;
    if (request.io_class == IoClass::kBestEffort) {
      last_best_effort_activity_ = loop_->now();
    }
    busy_ = false;
    --in_flight_;
    flush_in_service_ = false;
    uint64_t committed = CommitVolatile();
    ctr_complete_->Add();
    ctr_flushes_->Add();
    ctr_blocks_committed_->Add(committed);
    obs_->trace.Emit(loop_->now(), obs::TraceLayer::kBlock,
                     obs::TraceKind::kDeviceFlush, committed,
                     image_ != nullptr ? image_->commit_seq() : 0);
    if (request.done) {
      request.done(IoResult{});
    }
    TryDispatch();
    return;
  }
  ++stats_.ops[c][d];
  stats_.blocks[c][d] += request.count;
  stats_.busy[static_cast<size_t>(c)] += service_time;
  head_ = request.block + request.count;
  if (request.io_class == IoClass::kBestEffort) {
    last_best_effort_activity_ = loop_->now();
  }
  busy_ = false;
  --in_flight_;
  ctr_complete_->Add();
  (request.dir == IoDir::kRead ? hist_read_latency_us_ : hist_write_latency_us_)
      ->Record(service_time / kMicrosecond);
  IoResult result;
  if (injector_ != nullptr && request.consult_faults && request.dir == IoDir::kRead) {
    result.status = injector_->OnRead(request.block, request.count, loop_->now(),
                                      &result.failed_blocks);
    if (!result.status.ok()) {
      ctr_failed_requests_->Add();
      ctr_failed_blocks_->Add(result.failed_blocks.size());
    }
  }
  obs_->trace.Emit(loop_->now(), obs::TraceLayer::kBlock,
                   obs::TraceKind::kIoComplete, request.block, request.count,
                   static_cast<uint64_t>(result.status.code()));
  if (request.done) {
    request.done(result);
  }
  // After the client applied the write (checksums updated in `done`), let the
  // injector clear rewritten sectors' faults and apply armed torn writes.
  if (injector_ != nullptr && request.dir == IoDir::kWrite) {
    injector_->OnWriteApplied(request.block, request.count, loop_->now());
  }
  if (request.dir == IoDir::kWrite) {
    // The write now sits in the drive cache: volatile until the next barrier.
    for (BlockNo b = request.block; b < request.block + request.count; ++b) {
      NoteVolatileWrite(b);
    }
    --outstanding_writes_;
    // Release barriers waiting on writes submitted before them. Only writes
    // with serial <= the barrier's serial count; later writes (which the
    // scheduler may have serviced first) do not satisfy older barriers.
    for (PendingFlush& flush : waiting_flushes_) {
      if (request.serial <= flush.barrier_serial && flush.writes_remaining > 0) {
        --flush.writes_remaining;
      }
    }
    while (!waiting_flushes_.empty() &&
           waiting_flushes_.front().writes_remaining == 0) {
      PendingFlush ready = std::move(waiting_flushes_.front());
      waiting_flushes_.pop_front();
      EnqueueFlushRequest(std::move(ready));
    }
  }
  TryDispatch();
}

double BlockDevice::BestEffortUtilizationSince(SimTime since,
                                               SimDuration busy_at_since) const {
  SimTime now = loop_->now();
  if (now <= since) {
    return 0;
  }
  SimDuration busy = stats_.busy[static_cast<int>(IoClass::kBestEffort)] - busy_at_since;
  return static_cast<double>(busy) / static_cast<double>(now - since);
}

}  // namespace duet
