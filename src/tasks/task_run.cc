#include "src/tasks/task_run.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/duet/duet_library.h"
#include "src/fs/meta_codec.h"

namespace duet {

TaskRun::TaskRun(std::string_view name, TaskTag tag, EventLoop* loop,
                 DuetCore* duet)
    : name_(name),
      loop_(loop),
      duet_(duet),
      obs_(&loop->obs()),
      tag_(static_cast<uint64_t>(tag)) {
  std::string prefix = "tasks." + name_ + ".";
  started_ = obs_->metrics.GetCounter(prefix + "started");
  finished_ = obs_->metrics.GetCounter(prefix + "finished");
  chunks_ = obs_->metrics.GetCounter(prefix + "chunks");
  repairs_ = obs_->metrics.GetCounter(prefix + "repairs");
  retries_ = obs_->metrics.GetCounter(prefix + "retries");
  fetch_calls_ = obs_->metrics.GetCounter(prefix + "fetch_calls");
}

void TaskRun::Begin(std::function<void()> on_finish) {
  assert(!running_);
  running_ = true;
  ++epoch_;
  on_finish_ = std::move(on_finish);
  stats_ = TaskStats{};
  stats_.started_at = loop_->now();
  started_->Add();
  Emit(obs::TraceKind::kTaskStarted);
}

void TaskRun::Register(Result<SessionId> sid) {
  if (!sid.ok()) {
    fprintf(stderr, "task %s: cannot register a Duet session: %s\n",
            name_.c_str(), sid.status().ToString().c_str());
    std::abort();
  }
  sid_ = *sid;
}

InodeNo TaskRun::ResolveRoot(const Namespace& ns, std::string_view path) const {
  Result<InodeNo> root = ns.Resolve(path);
  if (!root.ok()) {
    fprintf(stderr, "task %s: root %.*s: %s\n", name_.c_str(),
            static_cast<int>(path.size()), path.data(), root.status().ToString().c_str());
    std::abort();
  }
  return *root;
}

void TaskRun::Arm(SimDuration delay, std::function<void()> fn) {
  if (!running_) {
    return;
  }
  // Ending the run cancels the timer, so a callback that fires is live.
  timer_ = loop_->ScheduleAfter(delay, [this, fn = std::move(fn)] {
    timer_ = kInvalidEvent;
    fn();
  });
}

void TaskRun::Poll(SimDuration interval, std::function<bool()> tick) {
  Arm(interval, [this, interval, tick = std::move(tick)] {
    if (tick()) {
      Poll(interval, tick);
    }
  });
}

void TaskRun::CancelTimer() {
  if (timer_ != kInvalidEvent) {
    loop_->Cancel(timer_);
    timer_ = kInvalidEvent;
  }
}

void TaskRun::Deregister() {
  if (sid_ != kInvalidSession) {
    (void)duet_->Deregister(sid_);
    sid_ = kInvalidSession;
  }
}

void TaskRun::Finish() {
  stats_.finished = true;
  stats_.finished_at = loop_->now();
  finished_->Add();
  Emit(obs::TraceKind::kTaskFinished, stats_.work_done);
  if (cursor_image_ != nullptr) {
    // Run complete: the next run starts from the beginning again.
    SaveCursor(std::vector<uint64_t>(cursor_width_, 0));
  }
  Stop();
  if (on_finish_) {
    on_finish_();
  }
}

void TaskRun::Stop() {
  running_ = false;
  CancelTimer();
  Deregister();
}

void TaskRun::Drain(InodePriorityQueue& queue, size_t batch) {
  fetch_calls_->Add();
  DrainEvents(*duet_, sid_, queue, batch);
}

void TaskRun::Drain(const std::function<void(const DuetItem&)>& fn,
                    size_t batch) {
  fetch_calls_->Add();
  DrainEvents(*duet_, sid_, fn, batch);
}

void TaskRun::PersistCursor(DurableImage* image, std::string key, size_t width) {
  cursor_image_ = image;
  cursor_key_ = std::move(key);
  cursor_width_ = width;
}

std::optional<std::vector<uint64_t>> TaskRun::SavedCursor() const {
  if (cursor_image_ == nullptr) {
    return std::nullopt;
  }
  std::optional<std::vector<uint64_t>> saved =
      GetCursorMeta(*cursor_image_, cursor_key_);
  if (!saved.has_value() || saved->size() != cursor_width_) {
    return std::nullopt;
  }
  return saved;
}

void TaskRun::SaveCursor(const std::vector<uint64_t>& words) {
  if (cursor_image_ != nullptr) {
    PutCursorMeta(cursor_image_, cursor_key_, words);
  }
}

}  // namespace duet
