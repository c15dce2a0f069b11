#include "src/tasks/virus_scanner.h"

#include <gtest/gtest.h>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/util/format.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class VirusScannerTest : public ::testing::Test {
 protected:
  VirusScannerTest()
      : rig_(1'000'000, Micros(100)),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/512),
        duet_(&fs_) {}

  void Populate(int files, uint64_t pages_each) {
    ASSERT_TRUE(fs_.Mkdir("/scan").ok());
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(
          fs_.PopulateFile(StrFormat("/scan/f%d", i), pages_each * kPageSize).ok());
    }
  }

  SimRig rig_;
  CowFs fs_;
  DuetCore duet_;
};

// A root that does not resolve aborts with a message in every build type,
// rather than walking an error Result once NDEBUG drops an assert.
using VirusScannerDeathTest = VirusScannerTest;
TEST_F(VirusScannerDeathTest, MissingRootAbortsWithMessage) {
  Populate(2, 4);
  VirusScannerConfig config;
  config.root = "/scan/missing";
  VirusScanner scanner(&fs_, nullptr, config);
  EXPECT_DEATH(scanner.Start(), "task virus_scan: root /scan/missing: NOT_FOUND");
}

TEST_F(VirusScannerTest, BaselineScansEveryFile) {
  Populate(10, 16);
  VirusScannerConfig config;
  config.root = "/scan";
  VirusScanner scanner(&fs_, nullptr, config);
  bool finished = false;
  scanner.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(scanner.files_scanned(), 10u);
  EXPECT_EQ(scanner.stats().work_done, 160u);
  EXPECT_TRUE(scanner.infected().empty());
}

TEST_F(VirusScannerTest, DetectsPlantedSignature) {
  Populate(4, 8);
  InodeNo victim = *fs_.ns().Resolve("/scan/f2");
  uint64_t bad_token = *fs_.PageContent(victim, 5);
  VirusScannerConfig config;
  config.root = "/scan";
  VirusScanner scanner(&fs_, nullptr, config);
  scanner.AddSignature(bad_token);
  scanner.Start();
  rig_.loop.Run();
  ASSERT_EQ(scanner.infected().size(), 1u);
  EXPECT_EQ(scanner.infected()[0], victim);
}

TEST_F(VirusScannerTest, DuetScansCachedFilesWithoutIo) {
  Populate(10, 16);
  // Warm three files.
  for (int i = 4; i < 7; ++i) {
    InodeNo ino = *fs_.ns().Resolve(StrFormat("/scan/f%d", i));
    fs_.Read(ino, 0, 16 * kPageSize, IoClass::kBestEffort, nullptr);
  }
  rig_.loop.RunUntil(Millis(500));
  VirusScannerConfig config;
  config.root = "/scan";
  config.use_duet = true;
  VirusScanner scanner(&fs_, &duet_, config);
  bool finished = false;
  scanner.Start([&] { finished = true; });
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(scanner.files_scanned(), 10u);
  EXPECT_GE(scanner.stats().saved_read_pages, 48u);  // the 3 warm files
  EXPECT_GT(scanner.stats().opportunistic_units, 0u);
  EXPECT_EQ(scanner.stats().work_done, scanner.stats().work_total);
}

TEST_F(VirusScannerTest, DuetStillDetectsInfectionsOutOfOrder) {
  Populate(6, 8);
  InodeNo victim = *fs_.ns().Resolve("/scan/f5");
  uint64_t bad_token = *fs_.PageContent(victim, 0);
  // Warm the infected file so it is scanned opportunistically, first.
  fs_.Read(victim, 0, 8 * kPageSize, IoClass::kBestEffort, nullptr);
  rig_.loop.RunUntil(Millis(500));
  VirusScannerConfig config;
  config.root = "/scan";
  config.use_duet = true;
  VirusScanner scanner(&fs_, &duet_, config);
  scanner.AddSignature(bad_token);
  scanner.Start();
  rig_.loop.Run();
  ASSERT_EQ(scanner.infected().size(), 1u);
  EXPECT_EQ(scanner.infected()[0], victim);
}

TEST_F(VirusScannerTest, ScansEachFileOnceDespiteRepeatedHints) {
  Populate(4, 8);
  VirusScannerConfig config;
  config.root = "/scan";
  config.use_duet = true;
  VirusScanner scanner(&fs_, &duet_, config);
  bool finished = false;
  scanner.Start([&] { finished = true; });
  // Touch the same file repeatedly while the scan runs.
  InodeNo hot = *fs_.ns().Resolve("/scan/f0");
  for (int i = 0; i < 10; ++i) {
    rig_.loop.ScheduleAt(Micros(static_cast<uint64_t>(100 * i)), [this, hot] {
      fs_.Read(hot, 0, 8 * kPageSize, IoClass::kBestEffort, nullptr);
    });
  }
  rig_.loop.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(scanner.files_scanned(), 4u);  // exactly once each
}

}  // namespace
}  // namespace duet
