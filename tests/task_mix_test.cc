// Backup and defrag together on a fragmented fileserver, as the paper's
// Fig. 7 runs them. The backup snapshot keeps every block the workload and
// defrag rewrite alive, so the device fills far enough that defrag's
// destination search wraps past the allocation cursor. After one window the
// stopped and synced stack must be fsck-clean on every seed, in baseline and
// Duet mode, with and without the scrubber.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/harness/calibrate.h"
#include "src/harness/rig.h"
#include "src/harness/runner.h"
#include "src/harness/stack_config.h"
#include "src/obs/obs.h"
#include "src/tasks/backup.h"
#include "src/tasks/defrag_task.h"
#include "src/tasks/scrubber.h"

namespace duet {
namespace {

// Runs `tasks` beside the workload for one window, stops everything, syncs
// and returns fsck's report.
FsckReport RunMixAndCheck(const MaintenanceRunConfig& config, const CalibratedRate& rate) {
  WorkloadConfig workload = MaintenanceWorkload(config);
  workload.ops_per_sec = rate.unthrottled ? 0 : rate.ops_per_sec;
  obs::ObsContext ctx;
  CowRig rig(config.stack, workload, ctx);
  std::unique_ptr<Scrubber> scrub;
  std::unique_ptr<Backup> backup;
  std::unique_ptr<DefragTask> defrag;
  for (MaintKind kind : config.tasks) {
    if (kind == MaintKind::kScrub) {
      ScrubberConfig c;
      c.use_duet = config.use_duet;
      scrub = std::make_unique<Scrubber>(&rig.fs(), &rig.duet(), c);
    } else if (kind == MaintKind::kBackup) {
      BackupConfig c;
      c.use_duet = config.use_duet;
      backup = std::make_unique<Backup>(&rig.fs(), &rig.duet(), c);
    } else {
      DefragConfig c;
      c.use_duet = config.use_duet;
      defrag = std::make_unique<DefragTask>(&rig.fs(), &rig.duet(), c);
    }
  }
  // RunMaintenance's start order.
  if (scrub != nullptr) {
    scrub->Start();
  }
  backup->Start();
  defrag->Start();
  rig.workload().Start();
  rig.loop().RunUntil(config.stack.window);

  rig.workload().Stop();
  if (scrub != nullptr) {
    scrub->Stop();
  }
  backup->Stop();
  defrag->Stop();
  bool synced = false;
  rig.fs().Sync([&synced] { synced = true; });
  const SimTime cap = rig.loop().now() + Seconds(600);
  while (!synced && rig.loop().now() < cap) {
    rig.loop().RunUntil(rig.loop().now() + Millis(100));
  }
  EXPECT_TRUE(synced);
  return rig.fs().CheckConsistency();
}

TEST(TaskMixTest, BackupAndDefragLeaveCowFsClean) {
  MaintenanceRunConfig config;
  config.stack = QuickStackConfig();
  config.personality = Personality::kFileserver;
  config.fragmented_fraction = 0.1;
  config.target_util = 0.6;
  RateTable rates;
  // The rate for 60% at the default seed (42), for every seed below.
  const CalibratedRate rate = rates.Get(config.stack, MaintenanceWorkload(config), 0.6);
  const std::vector<std::vector<MaintKind>> mixes = {
      {MaintKind::kBackup, MaintKind::kDefrag},
      {MaintKind::kScrub, MaintKind::kBackup, MaintKind::kDefrag}};
  for (bool use_duet : {false, true}) {
    for (const std::vector<MaintKind>& mix : mixes) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        config.use_duet = use_duet;
        config.tasks = mix;
        config.seed = seed;
        const FsckReport fsck = RunMixAndCheck(config, rate);
        EXPECT_TRUE(fsck.clean())
            << (use_duet ? "duet" : "baseline") << ", " << mix.size() << " tasks, seed "
            << seed << ": " << fsck.structural_errors << " structural, "
            << fsck.checksum_errors << " checksum errors, first bad block "
            << fsck.first_bad_block;
      }
    }
  }
}

}  // namespace
}  // namespace duet
