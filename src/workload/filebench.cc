#include "src/workload/filebench.h"

#include <algorithm>
#include <cassert>

#include "src/util/format.h"

namespace duet {

const char* PersonalityName(Personality p) {
  switch (p) {
    case Personality::kFileserver:
      return "fileserver";
    case Personality::kWebproxy:
      return "webproxy";
    case Personality::kWebserver:
      return "webserver";
  }
  return "unknown";
}

FilebenchWorkload::FilebenchWorkload(FileSystem* fs, WorkloadConfig config)
    : fs_(fs),
      config_(config),
      obs_(&fs->loop().obs()),
      ctr_issued_(obs_->metrics.GetCounter("workload.ops.issued")),
      ctr_completed_(obs_->metrics.GetCounter("workload.ops.completed")),
      ctr_reads_(obs_->metrics.GetCounter("workload.ops.read")),
      ctr_writes_(obs_->metrics.GetCounter("workload.ops.write")),
      ctr_creates_(obs_->metrics.GetCounter("workload.ops.create")),
      ctr_deletes_(obs_->metrics.GetCounter("workload.ops.delete")),
      ctr_pages_read_(obs_->metrics.GetCounter("workload.pages.read")),
      ctr_pages_written_(obs_->metrics.GetCounter("workload.pages.written")),
      hist_latency_ns_(obs_->metrics.GetHistogram("workload.op.latency_ns")),
      rng_(config.seed) {
  assert(fs_ != nullptr);
}

uint64_t FilebenchWorkload::SampleFileSize() {
  // Exponential size distribution around the mean, clamped to [1 page, 16x
  // mean] — close to Filebench's gamma-distributed file sizes.
  double size = rng_.Exponential(static_cast<double>(config_.mean_file_size));
  size = std::clamp(size, static_cast<double>(kPageSize),
                    16.0 * static_cast<double>(config_.mean_file_size));
  return static_cast<uint64_t>(size);
}

Status FilebenchWorkload::Setup() {
  assert(!setup_done_);
  Result<InodeNo> dir = fs_->Mkdir(config_.data_dir);
  if (!dir.ok() && dir.status().code() != StatusCode::kExists) {
    return dir.status();
  }
  uint64_t covered_count =
      std::max<uint64_t>(1, static_cast<uint64_t>(
                                static_cast<double>(config_.file_count) * config_.coverage));
  uint64_t subdirs = std::max<uint64_t>(1, config_.subdirs);
  for (uint64_t d = 1; d < subdirs; ++d) {
    Result<InodeNo> sub = fs_->Mkdir(StrFormat("%s/d%03llu", config_.data_dir.c_str(),
                                               static_cast<unsigned long long>(d)));
    if (!sub.ok() && sub.status().code() != StatusCode::kExists) {
      return sub.status();
    }
  }
  for (uint64_t i = 0; i < config_.file_count; ++i) {
    uint64_t d = i % subdirs;
    std::string path =
        d == 0 ? StrFormat("%s/f%06llu", config_.data_dir.c_str(),
                           static_cast<unsigned long long>(i))
               : StrFormat("%s/d%03llu/f%06llu", config_.data_dir.c_str(),
                           static_cast<unsigned long long>(d),
                           static_cast<unsigned long long>(i));
    bool aged =
        config_.fragmented_fraction > 0 && rng_.Chance(config_.fragmented_fraction);
    Result<InodeNo> ino = aged ? fs_->PopulateFileAged(path, SampleFileSize(),
                                                       /*break_prob=*/0.3, rng_)
                               : fs_->PopulateFile(path, SampleFileSize());
    if (!ino.ok()) {
      return ino.status();
    }
    // The covered subset is striped across the file set so covered data is
    // spread over the whole device, unless clustering is requested (cold-
    // data-placement ablation, §6.5).
    bool covered = config_.cluster_covered
                       ? i < covered_count
                       : (i * covered_count) % config_.file_count < covered_count;
    if (covered && covered_.size() < covered_count) {
      covered_.push_back(*ino);
    }
  }
  Result<InodeNo> log = fs_->PopulateFile(config_.log_path, kPageSize);
  if (!log.ok()) {
    return log.status();
  }
  log_ino_ = *log;
  if (config_.skewed) {
    zipf_ = std::make_unique<ZipfSampler>(covered_.size(), config_.zipf_s);
  }
  setup_done_ = true;
  return Status::Ok();
}

void FilebenchWorkload::Start() {
  assert(setup_done_);
  if (running_) {
    return;
  }
  running_ = true;
  next_issue_at_ = fs_->loop().now();
  for (WatchedRate& w : watched_) {
    w.next_issue_at = next_issue_at_;
  }
  IssueNext();
}

void FilebenchWorkload::Stop() { running_ = false; }

void FilebenchWorkload::WatchRates(std::vector<double> rates) {
  assert(!running_);
  watched_.clear();
  for (double rate : rates) {
    assert(rate > 0 &&
           rate < (watched_.empty() ? config_.ops_per_sec : watched_.back().ops_per_sec) &&
           "watched rates descend below ops_per_sec");
    watched_.push_back(WatchedRate{rate, 0});
  }
  unpaced_watched_ = watched_.size();
}

void FilebenchWorkload::AdvanceWatched(double u) {
  // A watched rate's gap is never shorter than the one the rate above it
  // drew from `u`, so its clock never runs behind: once it holds an op back,
  // every lower rate would too.
  SimTime now = fs_->loop().now();
  for (size_t i = 0; i < unpaced_watched_; ++i) {
    WatchedRate& w = watched_[i];
    w.next_issue_at += FromSeconds(Rng::ExponentialFromUniform(1.0 / w.ops_per_sec, u));
    if (w.next_issue_at > now) {
      unpaced_watched_ = i;
      return;
    }
  }
}

FilebenchWorkload::OpType FilebenchWorkload::PickOp() {
  // Weighted mixes chosen to land on the paper's R:W ratios per personality.
  uint64_t r = rng_.Uniform(1000);
  OpType op = OpType::kReadFile;
  switch (config_.personality) {
    case Personality::kWebserver:
      // 10 reads : 1 log append (R:W = 10:1, all writes to one log file).
      op = (r < 909) ? OpType::kReadFile : OpType::kAppendLog;
      break;
    case Personality::kWebproxy:
      // Reads 80%, appends 15%, create/delete churn 5% (R:W = 4:1).
      if (r < 800) {
        op = OpType::kReadFile;
      } else if (r < 950) {
        op = OpType::kAppendFile;
      } else {
        op = (r < 975) ? OpType::kCreate : OpType::kDelete;
      }
      break;
    case Personality::kFileserver:
      // 1 read : 2 writes, any file may be overwritten.
      if (r < 330) {
        op = OpType::kReadFile;
      } else if (r < 730) {
        op = OpType::kOverwrite;
      } else if (r < 870) {
        op = OpType::kAppendFile;
      } else {
        op = (r < 935) ? OpType::kCreate : OpType::kDelete;
      }
      break;
  }
  // Keep the file-set size roughly stable: never let deletes drain the
  // covered set below half its initial size.
  if (op == OpType::kDelete && covered_.size() * 2 < config_.file_count) {
    op = OpType::kCreate;
  }
  return op;
}

size_t FilebenchWorkload::PickFileIndex() {
  assert(!covered_.empty());
  if (zipf_ != nullptr) {
    return static_cast<size_t>(zipf_->Sample(rng_)) % covered_.size();
  }
  return static_cast<size_t>(rng_.Uniform(covered_.size()));
}

void FilebenchWorkload::OnOpComplete(OpType op, SimTime issued_at,
                                     const FsIoResult& result) {
  ctr_completed_->Add();
  SimDuration latency = fs_->loop().now() - issued_at;
  hist_latency_ns_->Record(latency);
  obs_->trace.Emit(fs_->loop().now(), obs::TraceLayer::kWorkload,
                   obs::TraceKind::kOpCompleted, static_cast<uint64_t>(op),
                   latency / kMicrosecond);
  switch (op) {
    case OpType::kReadFile:
      ctr_reads_->Add();
      ctr_pages_read_->Add(result.pages_requested);
      break;
    case OpType::kOverwrite:
    case OpType::kAppendFile:
    case OpType::kAppendLog:
      ctr_writes_->Add();
      ctr_pages_written_->Add(result.pages_requested);
      break;
    case OpType::kCreate:
      ctr_writes_->Add();
      ctr_creates_->Add();
      ctr_pages_written_->Add(result.pages_requested);
      break;
    case OpType::kDelete:
      ctr_writes_->Add();
      ctr_deletes_->Add();
      break;
  }
  if (!running_) {
    return;
  }
  // Closed loop with optional rate throttle: the next operation issues at
  // the later of "now" and the next pacing slot.
  if (config_.ops_per_sec > 0) {
    double u = rng_.ExponentialUniform();
    next_issue_at_ += FromSeconds(Rng::ExponentialFromUniform(1.0 / config_.ops_per_sec, u));
    if (unpaced_watched_ > 0) {
      AdvanceWatched(u);
    }
  } else {
    next_issue_at_ = fs_->loop().now() + config_.think_time;
  }
  SimTime when = std::max(next_issue_at_, fs_->loop().now());
  fs_->loop().ScheduleAt(when, [this] { IssueNext(); });
}

void FilebenchWorkload::IssueNext() {
  if (!running_) {
    return;
  }
  if (covered_.empty()) {
    running_ = false;
    return;
  }
  OpType op = PickOp();
  SimTime issued_at = fs_->loop().now();
  ctr_issued_->Add();
  obs_->trace.Emit(issued_at, obs::TraceLayer::kWorkload,
                   obs::TraceKind::kOpIssued, static_cast<uint64_t>(op));
  auto cb = [this, op, issued_at](const FsIoResult& result) {
    OnOpComplete(op, issued_at, result);
  };

  switch (op) {
    case OpType::kReadFile: {
      InodeNo ino = covered_[PickFileIndex()];
      const Inode* inode = fs_->ns().Get(ino);
      uint64_t size = inode != nullptr ? inode->size : kPageSize;
      if (config_.partial_read_fraction > 0 && size > kPageSize) {
        // Range request: a random page-aligned slice of the file.
        uint64_t len = std::max<uint64_t>(
            kPageSize, static_cast<uint64_t>(config_.partial_read_fraction *
                                             static_cast<double>(size)));
        len = std::min(len, size);
        uint64_t max_first = PagesForBytes(size - len);
        ByteOff off = rng_.Uniform(max_first + 1) * kPageSize;
        fs_->Read(ino, off, len, IoClass::kBestEffort, cb);
      } else {
        fs_->Read(ino, 0, size, IoClass::kBestEffort, cb);
      }
      return;
    }
    case OpType::kOverwrite: {
      InodeNo ino = covered_[PickFileIndex()];
      const Inode* inode = fs_->ns().Get(ino);
      fs_->Write(ino, 0, inode != nullptr ? inode->size : kPageSize,
                 IoClass::kBestEffort, cb);
      return;
    }
    case OpType::kAppendFile: {
      size_t idx = PickFileIndex();
      InodeNo ino = covered_[idx];
      const Inode* inode = fs_->ns().Get(ino);
      // Cap file growth: once a file balloons past 16x the mean, rewrite it
      // in place instead (Filebench keeps its set size roughly stable).
      if (inode != nullptr && inode->size > 16 * config_.mean_file_size) {
        fs_->Write(ino, 0, config_.append_size, IoClass::kBestEffort, cb);
      } else {
        fs_->Append(ino, config_.append_size, IoClass::kBestEffort, cb);
      }
      return;
    }
    case OpType::kAppendLog: {
      const Inode* log = fs_->ns().Get(log_ino_);
      // Rotate the log when it exceeds 256 MiB, as production servers do.
      if (log != nullptr && log->size > 256ull * 1024 * 1024) {
        (void)fs_->DeleteFile(log_ino_);
        Result<InodeNo> fresh = fs_->PopulateFile(config_.log_path, kPageSize);
        if (fresh.ok()) {
          log_ino_ = *fresh;
        }
      }
      fs_->Append(log_ino_, config_.append_size, IoClass::kBestEffort, cb);
      return;
    }
    case OpType::kCreate: {
      std::string path = StrFormat("%s/new%06llu", config_.data_dir.c_str(),
                                   static_cast<unsigned long long>(create_counter_++));
      Result<InodeNo> ino = fs_->CreateFile(path);
      if (!ino.ok()) {
        FsIoResult failed;
        failed.status = ino.status();
        OnOpComplete(op, issued_at, failed);
        return;
      }
      covered_.push_back(*ino);
      fs_->Write(*ino, 0, SampleFileSize(), IoClass::kBestEffort, cb);
      return;
    }
    case OpType::kDelete: {
      size_t idx = PickFileIndex();
      InodeNo ino = covered_[idx];
      covered_[idx] = covered_.back();
      covered_.pop_back();
      (void)fs_->DeleteFile(ino);
      FsIoResult ok_result;
      OnOpComplete(op, issued_at, ok_result);
      return;
    }
  }
}

}  // namespace duet
