#include "src/duet/duet_library.h"

#include <gtest/gtest.h>

#include "src/cowfs/cowfs.h"
#include "src/tasks/task_run.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

DuetItem Exists(InodeNo ino, ByteOff offset) {
  DuetItem item;
  item.id = ino;
  item.offset = offset;
  item.flags = kDuetPageExists;
  return item;
}

DuetItem Gone(InodeNo ino, ByteOff offset) {
  DuetItem item;
  item.id = ino;
  item.offset = offset;
  item.flags = kDuetPageRemoved;
  return item;
}

TEST(InodePriorityQueueTest, OrdersByScore) {
  InodePriorityQueue q([](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
  q.Update({Exists(1, 0), Exists(2, 0), Exists(2, kPageSize), Exists(3, 0),
            Exists(3, kPageSize), Exists(3, 2 * kPageSize)});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Dequeue(), 3u);  // 3 pages
  EXPECT_EQ(q.Dequeue(), 2u);  // 2 pages
  EXPECT_EQ(q.Dequeue(), 1u);
  EXPECT_EQ(q.Dequeue(), std::nullopt);
}

TEST(InodePriorityQueueTest, RemovalLowersPriority) {
  InodePriorityQueue q([](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
  q.Update({Exists(1, 0), Exists(1, kPageSize), Exists(2, 0)});
  q.Update({Gone(1, 0), Gone(1, kPageSize)});
  EXPECT_EQ(q.PagesInMemory(1), 0u);
  EXPECT_EQ(q.Dequeue(), 2u);
}

TEST(InodePriorityQueueTest, RemovalsClampAtZero) {
  InodePriorityQueue q([](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
  q.Update({Gone(5, 0), Gone(5, 0)});
  EXPECT_EQ(q.PagesInMemory(5), 0u);
}

TEST(InodePriorityQueueTest, DequeueRemovesUntilNextUpdate) {
  InodePriorityQueue q([](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
  q.Update({Exists(1, 0)});
  EXPECT_EQ(q.Dequeue(), 1u);
  EXPECT_TRUE(q.empty());
  // A later event re-queues it.
  q.Update({Exists(1, kPageSize)});
  EXPECT_EQ(q.Dequeue(), 1u);
  EXPECT_EQ(q.PagesInMemory(1), 2u);
}

TEST(InodePriorityQueueTest, EraseDropsInode) {
  InodePriorityQueue q([](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
  q.Update({Exists(1, 0), Exists(2, 0)});
  q.Erase(2);
  EXPECT_EQ(q.Dequeue(), 1u);
  EXPECT_EQ(q.Dequeue(), std::nullopt);
}

TEST(InodePriorityQueueTest, CustomScoreFunction) {
  // Prefer *smaller* inodes regardless of page count.
  InodePriorityQueue q([](InodeNo ino, uint64_t) { return -static_cast<double>(ino); });
  q.Update({Exists(9, 0), Exists(3, 0), Exists(5, 0)});
  EXPECT_EQ(q.Dequeue(), 3u);
  EXPECT_EQ(q.Dequeue(), 5u);
  EXPECT_EQ(q.Dequeue(), 9u);
}

TEST(DrainEventsTest, DrainsEverythingThroughQueue) {
  SimRig rig(100'000);
  CowFs fs(&rig.loop, &rig.device, 256);
  DuetCore duet(&fs);
  ASSERT_TRUE(fs.Mkdir("/w").ok());
  InodeNo ino = *fs.PopulateFile("/w/f", 10 * kPageSize);
  SessionId sid = *duet.RegisterFileTask("/w", kDuetPageExists);
  fs.Read(ino, 0, 10 * kPageSize, IoClass::kBestEffort, nullptr);
  rig.loop.Run();
  InodePriorityQueue q([](InodeNo, uint64_t pages) { return static_cast<double>(pages); });
  uint64_t fetched = DrainEvents(duet, sid, q, /*batch=*/3);
  EXPECT_EQ(fetched, 10u);
  EXPECT_EQ(q.PagesInMemory(ino), 10u);
  EXPECT_EQ(DrainEvents(duet, sid, q, TaskRun::kFetchBatch), 0u);
}

TEST(DrainEventsTest, RawCallbackVariant) {
  SimRig rig(100'000);
  CowFs fs(&rig.loop, &rig.device, 256);
  DuetCore duet(&fs);
  InodeNo ino = *fs.PopulateFile("/f", 5 * kPageSize);
  SessionId sid = *duet.RegisterBlockTask(kDuetPageAdded);
  fs.Read(ino, 0, 5 * kPageSize, IoClass::kBestEffort, nullptr);
  rig.loop.Run();
  uint64_t seen = 0;
  uint64_t fetched = DrainEvents(
      duet, sid,
      [&](const DuetItem& item) {
        EXPECT_TRUE(item.has(kDuetPageAdded));
        ++seen;
      },
      TaskRun::kFetchBatch);
  EXPECT_EQ(fetched, 5u);
  EXPECT_EQ(seen, 5u);
}

}  // namespace
}  // namespace duet
