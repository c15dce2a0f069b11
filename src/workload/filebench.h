// Filebench-like foreground workload generator (paper §6.1).
//
// Three personalities reproduce the paper's read-write mixes:
//  * fileserver — write-heavy, R:W = 1:2 (whole-file reads, overwrites,
//    appends, creates and deletes);
//  * webproxy  — read-heavy, R:W = 4:1, writes mostly append, with file
//    create/delete churn;
//  * webserver — read-mostly, R:W = 10:1, all writes appending to one log.
//
// Knobs match the paper's §6.1.1 modifications to Filebench:
//  * coverage — fraction of the file set the workload ever touches (the
//    "data overlap" with maintenance work);
//  * skewed   — pick files from a Zipf-like distribution fitted to the
//    Microsoft Production Build Server traces (Fig. 1) instead of uniform;
//  * ops_per_sec — rate throttle used to dial in a target device
//    utilization (0 = unthrottled closed loop).
#ifndef SRC_WORKLOAD_FILEBENCH_H_
#define SRC_WORKLOAD_FILEBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fs/file_system.h"
#include "src/obs/obs.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace duet {

enum class Personality { kFileserver, kWebproxy, kWebserver };

const char* PersonalityName(Personality p);

struct WorkloadConfig {
  Personality personality = Personality::kWebserver;
  uint64_t file_count = 4096;
  uint64_t mean_file_size = 64 * 1024;  // bytes; sampled per file
  double coverage = 1.0;                // fraction of files ever accessed
  // Covered-file placement: striped across the device (default) or clustered
  // in one contiguous region, leaving cold data in a separate area (§6.5
  // "cold data placement").
  bool cluster_covered = false;
  bool skewed = false;                  // MS-trace-like access distribution
  double zipf_s = 1.1;
  double ops_per_sec = 0;               // 0 = unthrottled
  // Minimum spacing between ops in the unthrottled closed loop (models the
  // application's own CPU work; prevents zero-time spins on cache hits).
  SimDuration think_time = Micros(100);
  uint64_t append_size = 16 * 1024;
  // Setup-time aging: fraction of files populated fragmented (each aged
  // file has ~30% extent breaks). 0.1 gives the paper's "10% fragmented"
  // file system.
  double fragmented_fraction = 0;
  uint64_t seed = 42;
  // Number of subdirectories the file set is spread across (1 = flat).
  uint64_t subdirs = 1;
  // When > 0, read ops fetch a random aligned range covering this fraction
  // of the file instead of the whole file (web range requests, database
  // pages). Creates partially-cached files.
  double partial_read_fraction = 0;
  std::string data_dir = "/data";
  std::string log_path = "/weblog";
};

class FilebenchWorkload {
 public:
  FilebenchWorkload(FileSystem* fs, WorkloadConfig config);

  // Creates the file set (instant, setup-time; no simulated I/O). Must be
  // called once before Start().
  Status Setup();

  // Begins issuing operations on the event loop. The workload runs as a
  // closed loop: one outstanding operation, paced by exponential
  // inter-arrival gaps when a rate limit is set.
  void Start();
  void Stop();

  // Files the workload may touch (the covered subset).
  uint64_t covered_files() const { return covered_.size(); }
  const WorkloadConfig& config() const { return config_; }

 private:
  enum class OpType { kReadFile, kOverwrite, kAppendFile, kAppendLog, kCreate, kDelete };

  void IssueNext();
  void OnOpComplete(OpType op, SimTime issued_at, const FsIoResult& result);
  OpType PickOp();
  // Index into covered_ according to the configured distribution.
  size_t PickFileIndex();
  uint64_t SampleFileSize();

  FileSystem* fs_;
  WorkloadConfig config_;
  obs::ObsContext* obs_;
  obs::Counter* ctr_issued_;
  obs::Counter* ctr_completed_;
  obs::Counter* ctr_reads_;
  obs::Counter* ctr_writes_;  // overwrite + append + create + delete
  obs::Counter* ctr_creates_;
  obs::Counter* ctr_deletes_;
  obs::Counter* ctr_pages_read_;
  obs::Counter* ctr_pages_written_;
  obs::LogHistogram* hist_latency_ns_;  // per-op completion latency
  Rng rng_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<InodeNo> covered_;  // files the workload may touch
  InodeNo log_ino_ = kInvalidInode;
  uint64_t create_counter_ = 0;
  bool running_ = false;
  bool setup_done_ = false;
  SimTime next_issue_at_ = 0;
};

}  // namespace duet

#endif  // SRC_WORKLOAD_FILEBENCH_H_
