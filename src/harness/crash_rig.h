// Crash-torture harness: drives a deterministic single-page-rewrite workload
// against a cowfs or logfs stack with a durable image attached, pulls the
// plug at a chosen point (sim-time or Nth device op), rebuilds the stack
// over the surviving image, remounts, runs fsck, and checks the durability
// oracle: every page whose content was acknowledged durable before the crash
// must be recovered at least that new. Unacknowledged writes may roll back —
// that is the contract, not a bug.
//
// The whole run is a pure function of the config (virtual time, seeded
// writes, deterministic crash point), so any failing crash point replays
// exactly.
#ifndef SRC_HARNESS_CRASH_RIG_H_
#define SRC_HARNESS_CRASH_RIG_H_

#include <cstdint>

#include "src/fs/file_system.h"
#include "src/sim/time.h"
#include "src/util/types.h"

namespace duet {

enum class CrashFsKind { kCow, kLog };

struct CrashRunConfig {
  CrashFsKind fs = CrashFsKind::kCow;
  uint64_t seed = 1;

  // Crash point: at an absolute sim-time, or when the device dispatches its
  // Nth data/flush op (1-based). Both zero = no mid-run crash; the plug is
  // pulled when the workload window ends instead.
  SimTime crash_at_time = 0;
  uint64_t crash_at_op = 0;

  // Stack scale — deliberately tiny: a torture sweep runs hundreds of these.
  uint64_t capacity_blocks = 4096;
  uint64_t cache_pages = 128;
  uint32_t segment_blocks = 64;  // logfs

  // Workload: `files` files of `file_pages` pages populated and checkpointed
  // up front, then `writes` random single-page rewrites spaced `write_gap`
  // apart, an fsync barrier every `sync_every`, and a checkpoint/superblock
  // commit every `checkpoint_every`. Foreground writes pause during commits
  // (the transaction-commit stall of a real COW/log file system).
  uint64_t files = 8;
  uint64_t file_pages = 16;
  uint64_t writes = 256;
  SimDuration write_gap = Millis(2);
  SimDuration sync_every = Millis(40);
  SimDuration checkpoint_every = Millis(160);

  // cowfs only: run a Duet scrubber and backup with persisted cursors during
  // the workload, and restart them after recovery to verify they re-register
  // and resume from the cursors instead of starting over.
  bool run_tasks = false;
};

struct CrashRunResult {
  // ---- Phase A (workload until the crash) ----
  bool crashed = false;           // the crash point fired mid-run
  uint64_t ops_before_crash = 0;  // device ops dispatched before the freeze
  uint64_t writes_issued = 0;
  uint64_t syncs_completed = 0;
  uint64_t checkpoints_completed = 0;

  // ---- Phase B (recovery) ----
  MountReport mount;
  FsckReport fsck;

  // ---- Durability oracle ----
  uint64_t acked_pages = 0;       // pages with an acknowledged-durable version
  uint64_t verified_pages = 0;    // recovered at least as new as acknowledged
  uint64_t lost_pages = 0;        // recovered older than acknowledged — a bug
  uint64_t rolled_back_pages = 0; // unacked tail writes undone (allowed)

  // ---- Maintenance resume (run_tasks) ----
  BlockNo scrub_resume_cursor = 0;   // nonzero: the scrub pass resumed there
  bool backup_resumed = false;       // reused the persisted snapshot + cursor
  uint64_t backup_resumed_pages = 0; // pages it did not have to re-stream

  bool ok() const {
    return mount.status.ok() && fsck.clean() && lost_pages == 0;
  }
};

// Runs one crash/recover cycle. Deterministic given `config`. Both stacks
// report into `obs` (a local context when null): the workload, the crash, the
// remount and the replay.
CrashRunResult RunCrashRecovery(const CrashRunConfig& config,
                                obs::ObsContext* obs = nullptr);

}  // namespace duet

#endif  // SRC_HARNESS_CRASH_RIG_H_
