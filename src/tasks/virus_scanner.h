// On-demand virus scanner (the paper's §1-§2 motivation lists AV scans as a
// canonical maintenance task: full scans in virtual machines cause I/O
// storms). The scanner reads every file under a directory and matches its
// content against a signature set.
//
// Baseline order: depth-first directory traversal (how scanners walk a
// tree). Opportunistic mode registers a Duet file task for Exists
// notifications and scans files with the most cached pages first — data
// brought in by the workload or by other maintenance tasks is scanned
// without touching the device.
#ifndef SRC_TASKS_VIRUS_SCANNER_H_
#define SRC_TASKS_VIRUS_SCANNER_H_

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/duet/duet_core.h"
#include "src/duet/duet_library.h"
#include "src/fs/file_system.h"
#include "src/tasks/task_run.h"

namespace duet {

struct VirusScannerConfig {
  bool use_duet = false;
  std::string root = "/";
  uint32_t chunk_pages = 32;          // 128 KiB scan buffers
  IoClass io_class = IoClass::kIdle;  // background scan
  size_t fetch_batch = 256;
  SimDuration fetch_interval = Millis(20);
};

class VirusScanner {
 public:
  VirusScanner(FileSystem* fs, DuetCore* duet, VirusScannerConfig config);
  ~VirusScanner();

  // Content tokens considered "infected" (failure-injection hook: write a
  // token into a file, add it here, and the scan must flag that file).
  void AddSignature(uint64_t token) { signatures_.insert(token); }

  void Start(std::function<void()> on_finish = nullptr);
  void Stop() { run_.Stop(); }

  const TaskStats& stats() const { return run_.stats(); }
  uint64_t files_scanned() const { return pass_.files_scanned; }
  const std::vector<InodeNo>& infected() const { return pass_.infected; }

 private:
  void ProcessNext();
  void ScanFile(InodeNo ino, bool opportunistic);
  void ScanChunk(InodeNo ino, PageIdx next_page, uint64_t size, bool opportunistic);
  void DrainDuetEvents();

  FileSystem* fs_;
  DuetCore* duet_;
  VirusScannerConfig config_;
  TaskRun run_;
  std::unordered_set<uint64_t> signatures_;
  // Per-run state; Start() resets it so every run starts from scratch.
  struct Pass {
    std::vector<InodeNo> worklist;  // DFS order
    size_t cursor = 0;
    std::unique_ptr<InodePriorityQueue> queue;
    std::vector<InodeNo> infected;
    uint64_t files_scanned = 0;
  } pass_;
};

}  // namespace duet

#endif  // SRC_TASKS_VIRUS_SCANNER_H_
