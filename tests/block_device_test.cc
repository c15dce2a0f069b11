#include "src/block/block_device.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/block/disk_model.h"
#include "src/block/io_scheduler.h"
#include "src/sim/event_loop.h"

namespace duet {
namespace {

// Fixed-latency model for deterministic scheduler tests.
class FixedModel : public DiskModel {
 public:
  explicit FixedModel(SimDuration latency) : latency_(latency) {}
  SimDuration ServiceTime(BlockNo, uint32_t, IoDir, BlockNo) const override {
    return latency_;
  }
  uint64_t capacity_blocks() const override { return 1'000'000; }
  const char* name() const override { return "fixed"; }

 private:
  SimDuration latency_;
};

IoRequest MakeRequest(BlockNo block, IoClass io_class, std::function<void()> done,
                      IoDir dir = IoDir::kRead, uint32_t count = 1) {
  IoRequest r;
  r.block = block;
  r.count = count;
  r.dir = dir;
  r.io_class = io_class;
  r.done = [done = std::move(done)](const IoResult&) {
    if (done) {
      done();
    }
  };
  return r;
}

TEST(BlockDeviceTest, CompletesSingleRequest) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedModel>(Millis(5)),
                  std::make_unique<NoopScheduler>());
  bool done = false;
  dev.Submit(MakeRequest(10, IoClass::kBestEffort, [&] { done = true; }));
  loop.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(loop.now(), Millis(5));
  EXPECT_EQ(dev.stats().TotalOps(IoClass::kBestEffort), 1u);
  EXPECT_EQ(dev.stats().busy[0], Millis(5));
}

TEST(BlockDeviceTest, ServicesOneAtATime) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedModel>(Millis(5)),
                  std::make_unique<NoopScheduler>());
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    dev.Submit(MakeRequest(static_cast<BlockNo>(i), IoClass::kBestEffort,
                           [&] { completions.push_back(loop.now()); }));
  }
  loop.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{Millis(5), Millis(10), Millis(15)}));
}

TEST(BlockDeviceTest, AccountsPerClassBusyTime) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedModel>(Millis(2)),
                  std::make_unique<NoopScheduler>());
  dev.Submit(MakeRequest(1, IoClass::kBestEffort, nullptr));
  dev.Submit(MakeRequest(2, IoClass::kIdle, nullptr, IoDir::kWrite));
  loop.Run();
  EXPECT_EQ(dev.stats().busy[static_cast<int>(IoClass::kBestEffort)], Millis(2));
  EXPECT_EQ(dev.stats().busy[static_cast<int>(IoClass::kIdle)], Millis(2));
  EXPECT_EQ(dev.stats().ops[1][1], 1u);  // idle write
}

TEST(CfqDeviceTest, BestEffortAlwaysBeatsIdle) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedModel>(Millis(1)),
                  std::make_unique<CfqScheduler>(Millis(2)));
  std::vector<int> order;
  dev.Submit(MakeRequest(1, IoClass::kIdle, [&] { order.push_back(1); }));
  dev.Submit(MakeRequest(2, IoClass::kBestEffort, [&] { order.push_back(2); }));
  dev.Submit(MakeRequest(3, IoClass::kBestEffort, [&] { order.push_back(3); }));
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(CfqDeviceTest, IdleRequestWaitsForGracePeriod) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedModel>(Millis(1)),
                  std::make_unique<CfqScheduler>(Millis(10)));
  SimTime idle_done = 0;
  dev.Submit(MakeRequest(1, IoClass::kBestEffort, nullptr));
  dev.Submit(MakeRequest(2, IoClass::kIdle, [&] { idle_done = loop.now(); }));
  loop.Run();
  // Best-effort completes at 1 ms; idle becomes eligible at 1 + 10 = 11 ms,
  // and takes 1 ms to service.
  EXPECT_EQ(idle_done, Millis(12));
}

TEST(CfqDeviceTest, ForegroundArrivalsKeepDeferringIdle) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedModel>(Millis(1)),
                  std::make_unique<CfqScheduler>(Millis(5)));
  SimTime idle_done = 0;
  dev.Submit(MakeRequest(1, IoClass::kIdle, [&] { idle_done = loop.now(); }));
  // Best-effort arrivals every 3 ms keep the gap below the 5 ms grace.
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(Millis(static_cast<uint64_t>(3 * i)),
                    [&dev, i] { dev.Submit(MakeRequest(static_cast<BlockNo>(10 + i),
                                                       IoClass::kBestEffort, nullptr)); });
  }
  loop.Run();
  // Last best-effort submitted at 12 ms completes at 13 ms; idle eligible at
  // 18 ms, done at 19 ms.
  EXPECT_EQ(idle_done, Millis(19));
}

TEST(CfqDeviceTest, InFlightIdleIsNotPreempted) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedModel>(Millis(4)),
                  std::make_unique<CfqScheduler>(Millis(1)));
  std::vector<int> order;
  dev.Submit(MakeRequest(1, IoClass::kIdle, [&] { order.push_back(1); }));
  // Idle dispatches at 1 ms (grace from t=0), finishes at 5 ms. A foreground
  // request arriving at 2 ms must wait for it.
  loop.ScheduleAt(Millis(2), [&] {
    dev.Submit(MakeRequest(2, IoClass::kBestEffort, [&] { order.push_back(2); }));
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), Millis(9));  // idle till 5, then 4 ms of service
}

TEST(DeadlineDeviceTest, NoPrioritization) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedModel>(Millis(1)),
                  std::make_unique<DeadlineScheduler>());
  std::vector<int> order;
  dev.Submit(MakeRequest(1, IoClass::kIdle, [&] { order.push_back(1); }));
  dev.Submit(MakeRequest(2, IoClass::kBestEffort, [&] { order.push_back(2); }));
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // FIFO: idle goes first
}

TEST(BlockDeviceTest, UtilizationMeasurement) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<FixedModel>(Millis(10)),
                  std::make_unique<CfqScheduler>());
  dev.Submit(MakeRequest(1, IoClass::kBestEffort, nullptr));
  loop.RunUntil(Millis(100));
  // 10 ms busy out of 100 ms elapsed.
  EXPECT_NEAR(dev.BestEffortUtilizationSince(0, 0), 0.10, 1e-9);
}

TEST(BlockDeviceTest, HeadPositionMakesBackToBackSequentialCheap) {
  obs::ObsContext obs;
  EventLoop loop(obs);
  BlockDevice dev(&loop, std::make_unique<HddModel>(),
                  std::make_unique<NoopScheduler>());
  SimTime first_done = 0;
  SimTime second_done = 0;
  dev.Submit(MakeRequest(1000, IoClass::kBestEffort, [&] { first_done = loop.now(); },
                         IoDir::kRead, 16));
  // Continues exactly where the first left off: no seek.
  dev.Submit(MakeRequest(1016, IoClass::kBestEffort, [&] { second_done = loop.now(); },
                         IoDir::kRead, 16));
  loop.Run();
  // First pays a seek; second is pure transfer, so it is much shorter.
  EXPECT_LT(second_done - first_done, first_done);
}

}  // namespace
}  // namespace duet
