#include "src/fault/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace duet {

uint64_t UndetectedFaults(const obs::MetricsSnapshot& m) {
  uint64_t injected = m.Value("fault.injected");
  uint64_t resolved = m.Value("fault.detected") + m.Value("fault.masked");
  return injected > resolved ? injected - resolved : 0;
}

double MeanTimeToDetectSeconds(const obs::MetricsSnapshot& m) {
  uint64_t detected = m.Value("fault.detected");
  return detected == 0 ? 0
                       : ToSeconds(m.Value("fault.detect_latency_ns")) /
                             static_cast<double>(detected);
}

FaultInjector::FaultInjector(EventLoop* loop, FaultPlan plan)
    : loop_(loop),
      plan_(std::move(plan)),
      obs_(&loop->obs()),
      ctr_injected_(obs_->metrics.GetCounter("fault.injected")),
      ctr_detected_(obs_->metrics.GetCounter("fault.detected")),
      ctr_repaired_(obs_->metrics.GetCounter("fault.repaired")),
      ctr_masked_(obs_->metrics.GetCounter("fault.masked")),
      ctr_unrecoverable_(obs_->metrics.GetCounter("fault.unrecoverable")),
      ctr_read_errors_(obs_->metrics.GetCounter("fault.read_errors")),
      ctr_transient_failures_(obs_->metrics.GetCounter("fault.transient_failures")),
      ctr_crashes_(obs_->metrics.GetCounter("fault.crashes")),
      ctr_skipped_(obs_->metrics.GetCounter("fault.skipped")),
      ctr_torn_armed_(obs_->metrics.GetCounter("fault.torn_armed")),
      ctr_transient_windows_(obs_->metrics.GetCounter("fault.transient_windows")),
      ctr_detect_latency_ns_(obs_->metrics.GetCounter("fault.detect_latency_ns")) {
  assert(loop_ != nullptr);
}

void FaultInjector::SetCorruptionSink(std::function<void(BlockNo, bool)> sink) {
  sink_ = std::move(sink);
}

void FaultInjector::SetTargetFilter(std::function<bool(BlockNo)> filter) {
  filter_ = std::move(filter);
}

void FaultInjector::SetCrashHandler(std::function<void()> handler) {
  crash_handler_ = std::move(handler);
}

void FaultInjector::ScheduleCrashAtTime(SimTime at) {
  loop_->ScheduleAt(at, [this] { TriggerCrash(/*source_tag=*/1); });
}

void FaultInjector::OnDeviceOp(uint64_t ops_dispatched, SimTime /*now*/) {
  if (crash_at_op_ != 0 && ops_dispatched >= crash_at_op_ && !crashed_) {
    TriggerCrash(/*source_tag=*/2);
  }
}

void FaultInjector::TriggerCrash(uint64_t source_tag) {
  if (crashed_) {
    return;  // a machine loses power once
  }
  crashed_ = true;
  ctr_crashes_->Add();
  obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFault,
                   obs::TraceKind::kCrashTriggered, source_tag, kFaultCrash);
  if (crash_handler_) {
    crash_handler_();
  }
}

void FaultInjector::Start() {
  assert(!started_);
  started_ = true;
  for (const FaultEvent& event : plan_.events()) {
    loop_->ScheduleAt(event.at, [this, event] { Activate(event); });
  }
}

void FaultInjector::Activate(const FaultEvent& event) {
  switch (event.kind) {
    case kFaultLatent:
    case kFaultBitRot: {
      if ((filter_ && !filter_(event.block)) || active_.count(event.block) != 0) {
        ctr_skipped_->Add();
        return;
      }
      active_[event.block] = ActiveFault{event.kind, loop_->now(), false, false};
      ctr_injected_->Add();
      obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFault,
                       obs::TraceKind::kFaultInjected, event.block, event.kind);
      if (event.kind == kFaultBitRot && sink_) {
        sink_(event.block, event.both_copies);
      }
      break;
    }
    case kFaultTornWrite:
      // Materializes when (and if) a write covers the block.
      if (armed_torn_.emplace(event.block, loop_->now()).second) {
        ctr_torn_armed_->Add();
        obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFault,
                         obs::TraceKind::kFaultArmed, event.block, event.kind);
      }
      break;
    case kFaultTransient:
      transients_.push_back(TransientWindow{
          event.block, event.span, loop_->now() + plan_.config().transient_duration,
          plan_.config().transient_latency});
      ctr_transient_windows_->Add();
      break;
    case kFaultCrash:
      TriggerCrash(/*source_tag=*/0);
      break;
    default:
      break;
  }
}

SimDuration FaultInjector::ExtraLatency(BlockNo block, uint32_t count, bool is_read,
                                        SimTime now) {
  if (!is_read || transients_.empty()) {
    return 0;
  }
  SimDuration extra = 0;
  for (const TransientWindow& w : transients_) {
    if (now < w.until && block < w.start + w.span && w.start < block + count) {
      extra = std::max(extra, w.latency);
    }
  }
  return extra;
}

Status FaultInjector::OnRead(BlockNo block, uint32_t count, SimTime now,
                             std::vector<BlockNo>* failed) {
  // Transient windows fail the whole request, retryably. Expired windows are
  // pruned here, the only place that scans them on the hot path.
  if (!transients_.empty()) {
    std::erase_if(transients_, [now](const TransientWindow& w) { return now >= w.until; });
    for (const TransientWindow& w : transients_) {
      if (block < w.start + w.span && w.start < block + count) {
        ctr_transient_failures_->Add();
        return Status(StatusCode::kBusy, "transient read timeout");
      }
    }
  }
  Status status = Status::Ok();
  for (BlockNo b = block; b < block + count; ++b) {
    auto it = active_.find(b);
    if (it == active_.end() || it->second.kind != kFaultLatent) {
      continue;
    }
    if (failed != nullptr) {
      failed->push_back(b);
    }
    ctr_read_errors_->Add();
    if (!it->second.detected) {
      it->second.detected = true;
      ctr_detected_->Add();
      obs_->trace.Emit(now, obs::TraceLayer::kFault,
                       obs::TraceKind::kFaultDetected, b);
      ctr_detect_latency_ns_->Add(now - it->second.injected_at);
    }
    status = Status(StatusCode::kIoError, "latent sector error");
  }
  return status;
}

void FaultInjector::ResolveFault(BlockNo block, bool via_rewrite) {
  auto it = active_.find(block);
  if (it == active_.end()) {
    return;
  }
  if (it->second.detected) {
    ctr_repaired_->Add();
    obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFault,
                     obs::TraceKind::kFaultRepaired, block);
  } else {
    ctr_masked_->Add();
    obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFault,
                     obs::TraceKind::kFaultMasked, block);
  }
  (void)via_rewrite;
  active_.erase(it);
}

void FaultInjector::OnWriteApplied(BlockNo block, uint32_t count, SimTime now) {
  for (BlockNo b = block; b < block + count; ++b) {
    // Rewriting the sector replaces its content: the active fault is gone.
    ResolveFault(b, /*via_rewrite=*/true);
    // An armed torn write corrupts the freshly persisted content.
    auto torn = armed_torn_.find(b);
    if (torn != armed_torn_.end()) {
      armed_torn_.erase(torn);
      active_[b] = ActiveFault{kFaultTornWrite, now, false, false};
      ctr_injected_->Add();
      obs_->trace.Emit(now, obs::TraceLayer::kFault,
                       obs::TraceKind::kFaultInjected, b, kFaultTornWrite);
      if (sink_) {
        sink_(b, /*both_copies=*/false);
      }
    }
  }
}

void FaultInjector::NoteCorruptionDetected(BlockNo block) {
  auto it = active_.find(block);
  if (it == active_.end() || it->second.detected) {
    return;  // not one of ours (manual test hook) or already counted
  }
  it->second.detected = true;
  ctr_detected_->Add();
  obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFault,
                   obs::TraceKind::kFaultDetected, block);
  ctr_detect_latency_ns_->Add(loop_->now() - it->second.injected_at);
}

void FaultInjector::NoteUnrecoverable(BlockNo block) {
  auto it = active_.find(block);
  if (it == active_.end() || it->second.unrecoverable) {
    return;
  }
  it->second.unrecoverable = true;
  ctr_unrecoverable_->Add();
  obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFault,
                   obs::TraceKind::kFaultUnrecoverable, block);
}

void FaultInjector::OnBlockFreed(BlockNo block) {
  // A freed block no longer backs live data; its fault cannot surface again.
  ResolveFault(block, /*via_rewrite=*/false);
}

bool FaultInjector::HasActiveFault(BlockNo block) const {
  return active_.count(block) != 0;
}

}  // namespace duet
