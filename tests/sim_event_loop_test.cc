#include "src/sim/event_loop.h"

#include <gtest/gtest.h>

#include <vector>

namespace duet {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  std::vector<int> order;
  loop.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  loop.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  loop.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Millis(30));
}

TEST(EventLoopTest, SameTimeEventsRunFifo) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  SimTime fired_at = 0;
  loop.ScheduleAt(Millis(10), [&] {
    loop.ScheduleAfter(Millis(5), [&] { fired_at = loop.now(); });
  });
  loop.Run();
  EXPECT_EQ(fired_at, Millis(15));
}

TEST(EventLoopTest, PastTimesClampToNow) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  SimTime fired_at = 1;
  loop.ScheduleAt(Millis(10), [&] {
    loop.ScheduleAt(Millis(1), [&] { fired_at = loop.now(); });
  });
  loop.Run();
  EXPECT_EQ(fired_at, Millis(10));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  bool ran = false;
  EventId id = loop.ScheduleAt(Millis(10), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // second cancel fails
  loop.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.executed_count(), 0u);
}

TEST(EventLoopTest, CancelAfterRunFails) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  EventId id = loop.ScheduleAt(Millis(1), [] {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  std::vector<int> order;
  loop.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  loop.ScheduleAt(Millis(30), [&] { order.push_back(2); });
  loop.RunUntil(Millis(20));
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_EQ(loop.now(), Millis(20));
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, RunUntilAdvancesClockWhenIdle) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  loop.RunUntil(Seconds(5));
  EXPECT_EQ(loop.now(), Seconds(5));
}

TEST(EventLoopTest, RunUntilSkipsCancelledHead) {
  // Regression: a cancelled event at the heap top must not let an event past
  // the deadline run.
  obs::ObsContext obs;
  EventLoop loop(obs);
  bool late_ran = false;
  EventId head = loop.ScheduleAt(Millis(10), [] {});
  loop.ScheduleAt(Millis(100), [&] { late_ran = true; });
  loop.Cancel(head);
  loop.RunUntil(Millis(50));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(loop.now(), Millis(50));
}

TEST(EventLoopTest, PendingCountTracksCancellation) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  EventId a = loop.ScheduleAt(Millis(1), [] {});
  loop.ScheduleAt(Millis(2), [] {});
  EXPECT_EQ(loop.pending_count(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.Run();
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_EQ(loop.executed_count(), 1u);
}

TEST(EventLoopTest, EventsCanScheduleChains) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) {
      loop.ScheduleAfter(Millis(1), tick);
    }
  };
  loop.ScheduleAfter(Millis(1), tick);
  loop.Run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(loop.now(), Millis(10));
}

}  // namespace
}  // namespace duet
