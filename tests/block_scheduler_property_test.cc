// Property tests for the I/O schedulers against reference models, under
// randomized arrival/completion interleavings.

#include <gtest/gtest.h>

#include <deque>

#include "src/block/block_device.h"
#include "src/block/io_scheduler.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

struct Completion {
  uint64_t tag;
  IoClass io_class;
  SimTime at;
};

class SchedulerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerPropertyTest, CfqInvariantsHold) {
  Rng rng(GetParam());
  obs::ObsContext obs;
  EventLoop loop(obs);
  SimDuration grace = Millis(1 + rng.Uniform(8));
  BlockDevice dev(&loop, std::make_unique<FixedLatencyModel>(Micros(200), 1'000'000),
                  std::make_unique<CfqScheduler>(grace));

  std::vector<Completion> completions;
  std::deque<uint64_t> submitted_be;  // submission order of best-effort tags
  uint64_t tag = 0;
  SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    t += Micros(rng.Uniform(2000));
    IoClass io_class = rng.Chance(0.6) ? IoClass::kBestEffort : IoClass::kIdle;
    uint64_t my_tag = tag++;
    if (io_class == IoClass::kBestEffort) {
      submitted_be.push_back(my_tag);
    }
    loop.ScheduleAt(t, [&dev, &loop, &completions, my_tag, io_class] {
      IoRequest req;
      req.block = my_tag % 1000;
      req.count = 1;
      req.dir = IoDir::kRead;
      req.io_class = io_class;
      req.done = [&completions, &loop, my_tag, io_class](const IoResult&) {
        completions.push_back(Completion{my_tag, io_class, loop.now()});
      };
      dev.Submit(std::move(req));
    });
  }
  loop.Run();

  // 1. Everything completes.
  ASSERT_EQ(completions.size(), 200u);

  // 2. Best-effort requests complete in FIFO submission order.
  std::deque<uint64_t> be_completed;
  for (const Completion& c : completions) {
    if (c.io_class == IoClass::kBestEffort) {
      be_completed.push_back(c.tag);
    }
  }
  EXPECT_EQ(be_completed, submitted_be);

  // 3. An idle completion implies the device had no best-effort work queued
  //    when it was dispatched — check the weaker, externally-visible form:
  //    between an idle request's dispatch (completion - service) and the
  //    previous best-effort activity there was at least the grace period,
  //    OR the idle request was already in flight when new work arrived.
  //    Verified structurally by the dedicated CfqDeviceTest cases; here we
  //    just assert that total busy time never exceeds elapsed time.
  EXPECT_LE(dev.stats().TotalBusy(), loop.now());
}

TEST_P(SchedulerPropertyTest, DeadlineIsPureFifo) {
  Rng rng(GetParam() + 1000);
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedLatencyModel>(Micros(300), 1'000'000),
                  std::make_unique<DeadlineScheduler>());
  std::vector<uint64_t> completed;
  std::vector<uint64_t> submitted;
  SimTime t = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    t += Micros(rng.Uniform(1000));
    submitted.push_back(i);
    loop.ScheduleAt(t, [&dev, &loop, &completed, i, &rng] {
      IoRequest req;
      req.block = i;
      req.count = 1;
      req.dir = rng.Chance(0.5) ? IoDir::kRead : IoDir::kWrite;
      req.io_class = rng.Chance(0.5) ? IoClass::kBestEffort : IoClass::kIdle;
      req.done = [&completed, i](const IoResult&) { completed.push_back(i); };
      dev.Submit(std::move(req));
    });
  }
  loop.Run();
  // With a single queue and no prioritization, completion order must match
  // submission order regardless of class, when submissions are distinct in
  // time. (Same-time submissions keep scheduling order via the event loop.)
  EXPECT_EQ(completed, submitted);
}

TEST_P(SchedulerPropertyTest, IdleStarvationUnderConstantLoad) {
  // With best-effort inter-arrival gaps always below the grace period, no
  // idle request may ever be serviced.
  Rng rng(GetParam() + 2000);
  obs::ObsContext obs;
  EventLoop loop(obs);
  SimDuration grace = Millis(5);
  BlockDevice dev(&loop, std::make_unique<FixedLatencyModel>(Micros(500), 1'000'000),
                  std::make_unique<CfqScheduler>(grace));
  bool idle_completed = false;
  IoRequest idle_req;
  idle_req.block = 1;
  idle_req.count = 1;
  idle_req.dir = IoDir::kRead;
  idle_req.io_class = IoClass::kIdle;
  idle_req.done = [&](const IoResult&) { idle_completed = true; };
  dev.Submit(std::move(idle_req));
  // Best-effort arrivals every 1-3 ms for 200 ms (gap always < 5 ms grace).
  SimTime t = 0;
  while (t < Millis(200)) {
    t += Millis(1 + rng.Uniform(3));
    loop.ScheduleAt(t, [&dev] {
      IoRequest req;
      req.block = 0;
      req.count = 1;
      req.dir = IoDir::kRead;
      req.io_class = IoClass::kBestEffort;
      dev.Submit(std::move(req));
    });
  }
  loop.RunUntil(Millis(200));
  EXPECT_FALSE(idle_completed);
  loop.Run();  // arrivals stop: the idle request finally gets through
  EXPECT_TRUE(idle_completed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace duet
