// File-system scrubber (paper §5.1), modeled on the Btrfs scrubber: reads
// every allocated block sequentially and verifies it against its checksum.
//
// Opportunistic mode registers a Duet block task. The scan marks each run of
// blocks its read verifies done, before their pages enter the cache, so its
// own reads report nothing to it. Its session takes Added ∨ Dirtied:
//  * Added  — the page was just read through the file system, and cowfs
//    verifies checksums on every read, so the block is marked scrubbed;
//  * Dirtied — the block's content changed; its (new) block must be
//    re-verified, so the done bit is cleared.
// The sequential scan then skips blocks already marked done, which is where
// the I/O savings come from.
#ifndef SRC_TASKS_SCRUBBER_H_
#define SRC_TASKS_SCRUBBER_H_

#include <functional>
#include <string>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/tasks/task_run.h"

namespace duet {

struct ScrubberConfig {
  bool use_duet = false;
};

class Scrubber {
 public:
  // Blocks per scan request (1 MiB).
  static constexpr uint32_t kChunkBlocks = 256;
  // Minimum run of already-verified blocks worth skipping. Breaking the scan
  // at every done block shatters it into tiny requests, and on disk one
  // repositioning (~1.7 ms) costs as much as reading ~64 blocks — short
  // verified runs are cheaper to read through than to seek around. The
  // value sits just under that crossover to bias toward more frequent
  // re-coverage of unverified data.
  static constexpr uint32_t kSkipRunBlocks = 48;
  // Maintenance I/O runs at idle priority (§6.5), so the scan yields to the
  // workload.
  static constexpr IoClass kIoClass = IoClass::kIdle;
  // A chunk that fails transiently (device busy / latency spike) is retried
  // this many times, with a backoff that starts here and doubles per
  // consecutive retry, before the pass skips it.
  static constexpr uint32_t kMaxRetries = 3;
  static constexpr SimDuration kRetryBackoff = Millis(10);

  // `duet` may be null when use_duet is false.
  Scrubber(CowFs* fs, DuetCore* duet, ScrubberConfig config);
  ~Scrubber();

  // Starts scrubbing; `on_finish` fires when the scan pass completes.
  void Start(std::function<void()> on_finish = nullptr);
  // Stops early (e.g. end of the experiment window).
  void Stop();

  // ---- Crash resume ----
  // Persists the scan cursor into a named region of the durable image after
  // every completed chunk; a Start() after a crash and remount resumes the
  // pass there instead of re-reading prior coverage from block 0. Finishing
  // a pass clears the cursor so the next pass scans from the start again.
  void EnableCursorPersistence(DurableImage* image,
                               std::string key = "cursor.scrub") {
    run_.PersistCursor(image, std::move(key), 1);
  }
  // Cursor the current pass started from (nonzero only when resumed).
  BlockNo resume_start() const { return resume_start_; }

  const TaskStats& stats() const { return run_.stats(); }
  uint64_t checksum_errors() const { return checksum_errors_; }
  uint64_t read_errors() const { return read_errors_; }
  uint64_t blocks_repaired() const { return blocks_repaired_; }
  uint64_t blocks_unrecoverable() const { return blocks_unrecoverable_; }
  uint64_t transient_retries() const { return transient_retries_; }

 private:
  void ProcessNextChunk();
  void DrainDuetEvents();
  void Finish();
  // Derives saved/completed work from the done bitmap (Duet mode).
  void FinalizeAccounting();

  CowFs* fs_;
  DuetCore* duet_;
  ScrubberConfig config_;
  TaskRun run_;
  BlockNo cursor_ = 0;
  BlockNo resume_start_ = 0;
  bool accounting_final_ = false;
  uint64_t checksum_errors_ = 0;
  uint64_t read_errors_ = 0;
  uint64_t blocks_repaired_ = 0;
  uint64_t blocks_unrecoverable_ = 0;
  uint64_t transient_retries_ = 0;
  uint32_t chunk_retry_ = 0;  // consecutive transient retries of this chunk
  uint64_t chunk_verified_ = 0;  // blocks of the chunk in flight verified so far
};

}  // namespace duet

#endif  // SRC_TASKS_SCRUBBER_H_
