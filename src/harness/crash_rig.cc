#include "src/harness/crash_rig.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/block/block_device.h"
#include "src/block/durable_image.h"
#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/fault/fault_injector.h"
#include "src/harness/stack_config.h"
#include "src/logfs/logfs.h"
#include "src/tasks/backup.h"
#include "src/tasks/scrubber.h"
#include "src/util/rng.h"

namespace duet {

namespace {

StackConfig RigStackConfig(const CrashRunConfig& config) {
  StackConfig sc;
  sc.capacity_blocks = config.capacity_blocks;
  sc.cache_pages = config.cache_pages;
  return sc;
}

std::unique_ptr<FileSystem> MakeFs(const CrashRunConfig& config, EventLoop* loop,
                                   BlockDevice* device) {
  if (config.fs == CrashFsKind::kLog) {
    return std::make_unique<LogFs>(loop, device, config.cache_pages,
                                   config.segment_blocks);
  }
  return std::make_unique<CowFs>(loop, device, config.cache_pages);
}

// Runs queued events until `flag` flips (without fast-forwarding the clock
// the way RunUntil would). Stops early on a halted loop or a drained queue.
void RunUntilFlag(EventLoop* loop, const bool* flag) {
  while (!*flag && !loop->halted() && loop->RunOne()) {
  }
}

}  // namespace

CrashRunResult RunCrashRecovery(const CrashRunConfig& config, obs::ObsContext* obs) {
  obs::ObsContext local_obs;
  if (obs == nullptr) {
    obs = &local_obs;
  }
  CrashRunResult result;
  DurableImage image(config.capacity_blocks);

  const uint64_t total_pages = config.files * config.file_pages;
  // Per-page version history: index 0 is the populated content, each rewrite
  // appends. Tokens are unique, so a recovered token identifies its version.
  std::vector<std::vector<uint64_t>> history(total_pages);
  // Highest history index acknowledged durable (promoted at barrier/commit
  // completion). Everything is acked at version 0 by the setup checkpoint.
  std::vector<uint64_t> acked(total_pages, 0);
  std::vector<InodeNo> inos(config.files, kInvalidInode);

  // ---- Phase A: populate, checkpoint, run the workload, crash ----
  {
    StackConfig sc = RigStackConfig(config);
    EventLoop loop(*obs);
    BlockDevice device(&loop, MakeDiskModel(sc), MakeScheduler(sc));
    std::unique_ptr<FileSystem> fs = MakeFs(config, &loop, &device);
    fs->AttachDurableImage(&image);

    for (uint64_t f = 0; f < config.files; ++f) {
      Result<InodeNo> ino = fs->PopulateFile("/f" + std::to_string(f),
                                             config.file_pages * kPageSize);
      assert(ino.ok());
      inos[f] = *ino;
      for (PageIdx p = 0; p < config.file_pages; ++p) {
        Result<BlockNo> block = fs->Bmap(*ino, p);
        assert(block.ok());
        history[f * config.file_pages + p].push_back(fs->DiskToken(*block));
      }
    }
    fs->SnapshotToDurable();

    // Setup checkpoint: generation 1 covers the populated state, so every
    // crash point — even one before the first workload barrier — has a
    // consistent image to recover to.
    bool setup_done = false;
    fs->Checkpoint([&setup_done] { setup_done = true; });
    RunUntilFlag(&loop, &setup_done);
    assert(setup_done);

    // The injector is used purely as the deterministic crash trigger here
    // (fault schedules are a different experiment's business).
    FaultInjector injector(&loop, FaultPlan());
    fs->AttachFaultInjector(&injector);
    injector.SetCrashHandler([&device, &loop] {
      device.CrashFreeze();
      loop.Halt();
    });
    if (config.crash_at_time != 0) {
      injector.ScheduleCrashAtTime(config.crash_at_time);
    }
    if (config.crash_at_op != 0) {
      injector.ScheduleCrashAtOp(config.crash_at_op);
    }
    injector.Start();

    // Maintenance with persisted cursors (cowfs only).
    std::optional<DuetCore> duet;
    std::optional<Scrubber> scrubber;
    std::optional<Backup> backup;
    if (config.run_tasks && config.fs == CrashFsKind::kCow) {
      auto* cow = static_cast<CowFs*>(fs.get());
      duet.emplace(fs.get());
      ScrubberConfig scrub_config;
      scrub_config.use_duet = true;
      scrubber.emplace(cow, &*duet, scrub_config);
      scrubber->EnableCursorPersistence(&image);
      scrubber->Start();
      BackupConfig backup_config;
      backup_config.use_duet = true;
      backup.emplace(cow, &*duet, backup_config);
      backup->EnableCursorPersistence(&image);
      backup->Start();
    }

    // Workload driver: seeded single-page rewrites, paused while a
    // checkpoint commit is in flight (quiesced commits).
    Rng rng(config.seed);
    uint64_t oracle_token = 0xc0ffee00d15c0000ULL;
    bool commit_in_flight = false;
    bool workload_done = config.writes == 0;

    std::function<void()> issue_write = [&] {
      if (loop.halted() || result.writes_issued >= config.writes) {
        workload_done = true;
        return;
      }
      if (commit_in_flight) {
        loop.ScheduleAfter(config.write_gap, issue_write);
        return;
      }
      uint64_t page = rng.Uniform(total_pages);
      uint64_t f = page / config.file_pages;
      PageIdx idx = page % config.file_pages;
      uint64_t token = ++oracle_token;
      history[page].push_back(token);
      fs->CopyIn(inos[f], idx * kPageSize, kPageSize, {token},
                 IoClass::kBestEffort, [](const FsIoResult&) {});
      ++result.writes_issued;
      loop.ScheduleAfter(config.write_gap, issue_write);
    };
    loop.ScheduleAfter(config.write_gap, issue_write);

    // A completed barrier/commit promotes the versions that existed when it
    // was issued: Sync guarantees durability for writes submitted before the
    // call; commits additionally quiesce, so call-time state = commit state.
    auto snapshot_versions = [&history, total_pages] {
      std::vector<uint64_t> cur(total_pages);
      for (uint64_t p = 0; p < total_pages; ++p) {
        cur[p] = history[p].size() - 1;
      }
      return cur;
    };
    auto promote = [&acked, total_pages](const std::vector<uint64_t>& cur) {
      for (uint64_t p = 0; p < total_pages; ++p) {
        acked[p] = std::max(acked[p], cur[p]);
      }
    };

    std::function<void()> sync_tick = [&] {
      if (loop.halted() || workload_done) {
        return;
      }
      fs->Sync([&, cur = snapshot_versions()] {
        // cowfs has no log tree: a crash rolls back to the last superblock
        // commit, so a bare fsync acknowledges durability only on logfs
        // (whose roll-forward replay restores synced records).
        if (config.fs == CrashFsKind::kLog) {
          promote(cur);
        }
        ++result.syncs_completed;
      });
      loop.ScheduleAfter(config.sync_every, sync_tick);
    };
    loop.ScheduleAfter(config.sync_every, sync_tick);

    std::function<void()> checkpoint_tick = [&] {
      if (loop.halted() || workload_done || commit_in_flight) {
        return;
      }
      commit_in_flight = true;
      fs->Checkpoint([&, cur = snapshot_versions()] {
        promote(cur);
        ++result.checkpoints_completed;
        commit_in_flight = false;
      });
      loop.ScheduleAfter(config.checkpoint_every, checkpoint_tick);
    };
    loop.ScheduleAfter(config.checkpoint_every, checkpoint_tick);

    // Generous bound: the workload ends far earlier; a crash ends it earlier
    // still. RunUntil returns immediately once the crash halts the loop.
    loop.RunUntil(config.writes * config.write_gap + Seconds(4));
    result.crashed = injector.crashed();
    result.ops_before_crash = device.ops_dispatched();
    if (!result.crashed) {
      // No mid-run crash point: pull the plug at the end of the window.
      device.CrashFreeze();
    }
  }  // stack A torn down; only `image` survives

  // ---- Phase B: rebuild the stack over the image, mount, verify ----
  image.Thaw();
  {
    StackConfig sc = RigStackConfig(config);
    EventLoop loop(*obs);
    BlockDevice device(&loop, MakeDiskModel(sc), MakeScheduler(sc));
    std::unique_ptr<FileSystem> fs = MakeFs(config, &loop, &device);
    fs->AttachDurableImage(&image);

    bool mounted = false;
    fs->Mount([&](const MountReport& report) {
      result.mount = report;
      mounted = true;
    });
    RunUntilFlag(&loop, &mounted);
    assert(mounted);
    if (!result.mount.status.ok()) {
      return result;
    }
    result.fsck = fs->CheckConsistency();

    // Durability oracle: every acked version must still be reachable.
    for (uint64_t p = 0; p < total_pages; ++p) {
      uint64_t f = p / config.file_pages;
      PageIdx idx = p % config.file_pages;
      ++result.acked_pages;
      Result<BlockNo> block = fs->Bmap(inos[f], idx);
      uint64_t recovered = block.ok() ? fs->DiskToken(*block) : 0;
      const std::vector<uint64_t>& versions = history[p];
      auto it = std::find(versions.begin(), versions.end(), recovered);
      if (it == versions.end() ||
          static_cast<uint64_t>(it - versions.begin()) < acked[p]) {
        ++result.lost_pages;  // acknowledged-durable data gone
        continue;
      }
      ++result.verified_pages;
      if (static_cast<uint64_t>(it - versions.begin()) < versions.size() - 1) {
        ++result.rolled_back_pages;  // unacked tail undone — allowed
      }
    }

    // Restart maintenance: sessions re-register against the recovered stack
    // (soft state rebuilt by the registration-time initial scan) and the
    // tasks resume from their persisted cursors.
    if (config.run_tasks && config.fs == CrashFsKind::kCow) {
      auto* cow = static_cast<CowFs*>(fs.get());
      DuetCore duet(fs.get());
      ScrubberConfig scrub_config;
      scrub_config.use_duet = true;
      Scrubber scrubber(cow, &duet, scrub_config);
      scrubber.EnableCursorPersistence(&image);
      bool scrub_done = false;
      scrubber.Start([&scrub_done] { scrub_done = true; });
      result.scrub_resume_cursor = scrubber.resume_start();

      BackupConfig backup_config;
      backup_config.use_duet = true;
      Backup backup(cow, &duet, backup_config);
      backup.EnableCursorPersistence(&image);
      bool backup_done = false;
      backup.Start([&backup_done] { backup_done = true; });
      result.backup_resumed = backup.resumed();
      result.backup_resumed_pages = backup.resumed_pages();

      loop.RunUntil(loop.now() + Seconds(30));
      assert(scrub_done && backup_done);
      (void)scrub_done;
      (void)backup_done;
    }
  }
  return result;
}

}  // namespace duet
