#include <gtest/gtest.h>

#include "src/cache/page_cache.h"
#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

TEST(EvictionAdvisorTest, AdvisedPagesEvictBeforeColderOnes) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  PageCache cache(4, &loop);
  // Inode 3's pages are marked processed (good victims).
  cache.SetEvictionAdvisor([](InodeNo ino, PageIdx) { return ino == 3; });
  cache.Insert(1, 0, 1, false);  // coldest, NOT advised
  cache.Insert(2, 0, 2, false);
  cache.Insert(3, 0, 3, false);  // advised, middle of the LRU
  cache.Insert(4, 0, 4, false);
  cache.Insert(5, 0, 5, false);  // overflow
  // Plain LRU would evict ino 1 (coldest); the advisor redirects to ino 3.
  EXPECT_FALSE(cache.Contains(3, 0));
  EXPECT_TRUE(cache.Contains(1, 0));
  EXPECT_TRUE(cache.Contains(2, 0));
  EXPECT_TRUE(cache.Contains(4, 0));
  EXPECT_TRUE(cache.Contains(5, 0));
}

TEST(EvictionAdvisorTest, FallsBackToLruWhenNothingAdvised) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  PageCache cache(2, &loop);
  cache.SetEvictionAdvisor([](InodeNo, PageIdx) { return false; });
  cache.Insert(1, 0, 1, false);
  cache.Insert(2, 0, 2, false);
  cache.Insert(3, 0, 3, false);
  EXPECT_FALSE(cache.Contains(1, 0));  // plain LRU victim
  EXPECT_TRUE(cache.Contains(2, 0));
  EXPECT_TRUE(cache.Contains(3, 0));
}

TEST(EvictionAdvisorTest, ClearRestoresPlainLru) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  PageCache cache(2, &loop);
  cache.SetEvictionAdvisor([](InodeNo ino, PageIdx) { return ino == 2; });
  cache.ClearEvictionAdvisor();
  cache.Insert(1, 0, 1, false);
  cache.Insert(2, 0, 2, false);
  cache.Insert(3, 0, 3, false);
  EXPECT_FALSE(cache.Contains(1, 0));
  EXPECT_TRUE(cache.Contains(2, 0));
}

TEST(EvictionAdvisorTest, DirtyPagesNeverAdvisedAway) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  PageCache cache(2, &loop);
  cache.SetEvictionAdvisor([](InodeNo, PageIdx) { return true; });
  cache.Insert(1, 0, 1, true);  // dirty
  cache.Insert(2, 0, 2, false);
  cache.Insert(3, 0, 3, false);
  EXPECT_TRUE(cache.Contains(1, 0));  // dirty survives even though advised
}

TEST(EvictionAdvisorTest, DuetProcessedByAllSessions) {
  SimRig rig(100'000);
  CowFs fs(&rig.loop, &rig.device, 256);
  DuetCore duet(&fs);
  InodeNo ino = *fs.PopulateFile("/f", 2 * kPageSize);
  BlockNo b0 = *fs.Bmap(ino, 0);
  // No sessions tracking completion: nothing is "processed".
  EXPECT_FALSE(duet.ProcessedByAllSessions(ino, 0));
  SessionId a = *duet.RegisterBlockTask(kDuetPageAdded);
  SessionId b = *duet.RegisterBlockTask(kDuetPageAdded);
  ASSERT_TRUE(duet.SetDone(a, b0).ok());
  // Session b tracks nothing yet (zero done bits): only a votes.
  EXPECT_TRUE(duet.ProcessedByAllSessions(ino, 0));
  // Once b starts tracking, it must also mark the block.
  ASSERT_TRUE(duet.SetDone(b, *fs.Bmap(ino, 1)).ok());
  EXPECT_FALSE(duet.ProcessedByAllSessions(ino, 0));
  ASSERT_TRUE(duet.SetDone(b, b0).ok());
  EXPECT_TRUE(duet.ProcessedByAllSessions(ino, 0));
  // Page 1 is done for b but not a.
  EXPECT_FALSE(duet.ProcessedByAllSessions(ino, 1));
}

}  // namespace
}  // namespace duet
