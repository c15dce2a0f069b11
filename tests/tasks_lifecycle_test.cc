// The lifecycle every maintenance task shares through TaskRun: a second
// Start() runs the task from scratch, and a session registration that fails
// stops the program with a message in every build type.
#include <gtest/gtest.h>

#include <memory>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/tasks/backup.h"
#include "src/tasks/defrag_task.h"
#include "src/tasks/rsync_task.h"
#include "src/tasks/scrubber.h"
#include "src/tasks/virus_scanner.h"
#include "src/util/format.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

// A source cowfs with a Duet core on it, plus a destination cowfs on its own
// device for rsync.
struct Stack {
  explicit Stack(DuetConfig duet_config = DuetConfig())
      : rig(1'000'000, Micros(100)),
        fs(&rig.loop, &rig.device, /*cache_pages=*/512),
        dst_device(&rig.loop, std::make_unique<FixedLatencyModel>(Micros(100)),
                   std::make_unique<CfqScheduler>()),
        dst_fs(&rig.loop, &dst_device, /*cache_pages=*/512),
        duet(&fs, duet_config) {}

  void Populate(const char* prefix, int files, uint64_t pages_each) {
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(
          fs.PopulateFile(StrFormat("/%s%d", prefix, i), pages_each * kPageSize).ok());
    }
  }
  void PopulateAged(const char* prefix, int files, uint64_t pages_each) {
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(fs.PopulateFileAged(StrFormat("/%s%d", prefix, i),
                                      pages_each * kPageSize, 0.5, rng)
                      .ok());
    }
  }

  SimRig rig;
  CowFs fs;
  BlockDevice dst_device;
  CowFs dst_fs;
  DuetCore duet;
  Rng rng{3};
};

// Per task: how to build it, the file-system state before each run, and
// what a restart must have cleaned up.
struct EightFiles {
  static void Populate(Stack& s) { s.Populate("f", 8, 32); }
  static void BetweenRuns(Stack&) {}
  static void CheckRestarted(Stack&) {}
};

struct ScrubTraits : EightFiles {
  static std::unique_ptr<Scrubber> Make(Stack& s, bool use_duet) {
    ScrubberConfig config;
    config.use_duet = use_duet;
    return std::make_unique<Scrubber>(&s.fs, &s.duet, config);
  }
};

struct BackupTraits : EightFiles {
  static std::unique_ptr<Backup> Make(Stack& s, bool use_duet) {
    BackupConfig config;
    config.use_duet = use_duet;
    return std::make_unique<Backup>(&s.fs, &s.duet, config);
  }
  // Run 1 streamed from snapshot 1; run 2 took its own.
  static void CheckRestarted(Stack& s) { EXPECT_EQ(s.fs.GetSnapshot(1), nullptr); }
};

struct VirusScanTraits : EightFiles {
  static std::unique_ptr<VirusScanner> Make(Stack& s, bool use_duet) {
    VirusScannerConfig config;
    config.use_duet = use_duet;
    return std::make_unique<VirusScanner>(&s.fs, &s.duet, config);
  }
};

struct RsyncTraits : EightFiles {
  static std::unique_ptr<RsyncTask> Make(Stack& s, bool use_duet) {
    RsyncConfig config;
    config.hints = use_duet ? RsyncHints::kDuet : RsyncHints::kNone;
    return std::make_unique<RsyncTask>(&s.fs, &s.dst_fs, &s.duet, config);
  }
};

struct DefragTraits : EightFiles {
  static std::unique_ptr<DefragTask> Make(Stack& s, bool use_duet) {
    DefragConfig config;
    config.use_duet = use_duet;
    return std::make_unique<DefragTask>(&s.fs, &s.duet, config);
  }
  // Run 1 leaves every file contiguous; run 2 has only new ones to fix.
  static void Populate(Stack& s) { s.PopulateAged("f", 8, 64); }
  static void BetweenRuns(Stack& s) { s.PopulateAged("g", 4, 64); }
};

template <typename Task>
void RunToFinish(Stack& s, Task& task) {
  bool finished = false;
  task.Start([&] { finished = true; });
  s.rig.loop.Run();
  EXPECT_TRUE(finished);
}

template <typename Traits>
class TaskRestartTest : public ::testing::Test {};

using RestartableTasks = ::testing::Types<ScrubTraits, BackupTraits, VirusScanTraits,
                                          RsyncTraits, DefragTraits>;
TYPED_TEST_SUITE(TaskRestartTest, RestartableTasks);

TYPED_TEST(TaskRestartTest, SecondStartMatchesAFreshTask) {
  for (bool use_duet : {false, true}) {
    SCOPED_TRACE(use_duet ? "duet" : "baseline");
    // One task object started twice...
    Stack again;
    TypeParam::Populate(again);
    auto task = TypeParam::Make(again, use_duet);
    RunToFinish(again, *task);
    TypeParam::BetweenRuns(again);
    RunToFinish(again, *task);
    TypeParam::CheckRestarted(again);

    // ...must do what a fresh object does on the same file-system state.
    Stack fresh;
    TypeParam::Populate(fresh);
    RunToFinish(fresh, *TypeParam::Make(fresh, use_duet));
    TypeParam::BetweenRuns(fresh);
    auto second = TypeParam::Make(fresh, use_duet);
    RunToFinish(fresh, *second);

    const TaskStats& got = task->stats();
    const TaskStats& want = second->stats();
    EXPECT_GT(want.work_total, 0u);
    EXPECT_EQ(got.work_total, want.work_total);
    EXPECT_EQ(got.work_done, want.work_done);
    EXPECT_EQ(got.io_read_pages, want.io_read_pages);
    EXPECT_EQ(got.io_write_pages, want.io_write_pages);
    EXPECT_EQ(got.saved_read_pages, want.saved_read_pages);
    EXPECT_EQ(got.saved_write_pages, want.saved_write_pages);
  }
}

TEST(TaskRunDeathTest, FullSessionTableAbortsWithMessage) {
  EXPECT_DEATH(
      {
        Stack s(DuetConfig{.max_sessions = 1});
        s.Populate("f", 2, 8);
        ScrubberConfig scrub_config;
        scrub_config.use_duet = true;
        Scrubber scrubber(&s.fs, &s.duet, scrub_config);
        scrubber.Start();
        VirusScannerConfig scan_config;
        scan_config.use_duet = true;
        VirusScanner scanner(&s.fs, &s.duet, scan_config);
        scanner.Start();
      },
      "task virus_scan: cannot register a Duet session");
}

}  // namespace
}  // namespace duet
