#include "src/tasks/gc_task.h"

#include <cassert>

namespace duet {

GcTask::GcTask(LogFs* fs, DuetCore* duet, GcConfig config)
    : fs_(fs),
      duet_(duet),
      config_(config),
      run_("gc", TaskTag::kGc, &fs->loop(), duet) {
  assert(fs_ != nullptr);
  assert(!config_.use_duet || duet_ != nullptr);
  cached_.assign(fs_->segment_count(), 0);
}

GcTask::~GcTask() { Stop(); }

void GcTask::Start() {
  run_.Begin();
  if (config_.use_duet) {
    run_.Register(duet_->RegisterBlockTask(kDuetPageExists | kDuetPageFlushed));
  }
  run_.Arm(kWakeInterval, [this] { Tick(); });
}

void GcTask::Stop() {
  if (run_.running()) {
    run_.Finish();
  }
}

void GcTask::DrainDuetEvents() {
  run_.Drain([this](const DuetItem& item) {
    SegmentNo seg = fs_->SegmentOf(item.id);
    if (seg >= cached_.size()) {
      return;
    }
    // Resolve the owning page through the back references (F2fs's SSA), so
    // a page that moved segments adjusts both counters (§5.4).
    Result<FileSystem::BlockOwner> owner = fs_->Rmap(item.id);
    if (!owner.ok()) {
      return;
    }
    std::pair<InodeNo, PageIdx> key{owner->ino, owner->idx};
    auto counted = counted_.find(key);
    if (item.has(kDuetPageRemoved)) {
      // Page left the cache.
      if (counted != counted_.end()) {
        if (cached_[counted->second] > 0) {
          --cached_[counted->second];
        }
        counted_.erase(counted);
      }
      return;
    }
    // A Flushed item without Exists may be a page that was added, flushed
    // and evicted since the last drain: its existence was never reported,
    // so only the cache can tell whether it is still there.
    if (item.has(kDuetPageExists) ||
        (item.has(kDuetPageFlushed) && fs_->cache().Contains(owner->ino, owner->idx))) {
      // Page is cached and currently backed by `seg`. Move the count if it
      // was attributed to another segment (the block was relocated).
      if (counted != counted_.end()) {
        if (counted->second == seg) {
          return;
        }
        if (cached_[counted->second] > 0) {
          --cached_[counted->second];
        }
        counted->second = seg;
      } else {
        counted_.emplace(key, seg);
      }
      ++cached_[seg];
    }
  });
}

double GcTask::VictimCost(SegmentNo seg, const SegmentInfo& info) const {
  SimTime now = fs_->loop().now();
  if (!config_.use_duet) {
    return GcCostBaseline(info, fs_->segment_blocks(), now);
  }
  int64_t cached = cached_[seg];
  if (cached < 0) {
    cached = 0;
  }
  uint64_t capped = std::min<uint64_t>(static_cast<uint64_t>(cached), info.valid);
  return GcCostDuet(info, fs_->segment_blocks(), now, capped);
}

void GcTask::Tick() {
  auto reschedule = [this] {
    run_.Arm(kWakeInterval, [this] { Tick(); });
  };
  if (config_.use_duet) {
    DrainDuetEvents();
  }
  // Run only when the device has been idle for a while (background GC).
  SimTime now = fs_->loop().now();
  SimTime last_activity = fs_->device().last_best_effort_activity();
  bool idle = !fs_->device().busy() && now - last_activity >= kIdleThreshold;
  if (!idle || cleaning_) {
    reschedule();
    return;
  }
  std::optional<SegmentNo> victim = fs_->SelectVictim(
      window_cursor_, kWindowSegments,
      [this](SegmentNo seg, const SegmentInfo& info) { return VictimCost(seg, info); });
  window_cursor_ = (window_cursor_ + kWindowSegments) % fs_->segment_count();
  if (!victim.has_value()) {
    reschedule();
    return;
  }
  cleaning_ = true;
  run_.ChunkStarted(*victim, 0);
  fs_->CleanSegment(*victim, kIoClass, [this, reschedule](const CleanResult& r) {
    cleaning_ = false;
    run_.ChunkFinished(r.segment, r.blocks_moved);
    if (r.status.ok() && r.blocks_moved > 0) {
      ++segments_cleaned_;
      cleaning_time_ms_.Add(ToMillis(r.duration));
      TaskStats& stats = run_.stats();
      stats.work_done += r.blocks_moved;
      stats.io_read_pages += r.blocks_read_disk;
      stats.saved_read_pages += r.blocks_from_cache;
      // Counters for the cleaned segment are stale now; reset them.
      if (r.segment < cached_.size()) {
        cached_[r.segment] = 0;
      }
    }
    reschedule();
  });
}

}  // namespace duet
