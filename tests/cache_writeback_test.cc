#include "src/cache/writeback.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/sim/event_loop.h"

namespace duet {
namespace {

// Target that "writes" pages after a fixed delay and cleans them.
class FakeTarget : public WritebackTarget {
 public:
  FakeTarget(EventLoop* loop, PageCache* cache, SimDuration delay)
      : loop_(loop), cache_(cache), delay_(delay) {}

  void WritebackPages(std::vector<PageCache::DirtyPageRef> pages,
                      std::function<void()> done) override {
    ++passes;
    pages_flushed += pages.size();
    loop_->ScheduleAfter(delay_, [this, pages = std::move(pages),
                                  done = std::move(done)] {
      for (const auto& ref : pages) {
        cache_->MarkClean(ref.ino, ref.idx);
      }
      done();
    });
  }

  uint64_t passes = 0;
  uint64_t pages_flushed = 0;

 private:
  EventLoop* loop_;
  PageCache* cache_;
  SimDuration delay_;
};

class WritebackTest : public ::testing::Test {
 protected:
  WritebackTest()
      : loop_(obs_),
        cache_(100, &loop_),
        target_(&loop_, &cache_, Millis(5)) {}

  void MakeWriteback(WritebackParams params) {
    wb_ = std::make_unique<Writeback>(&loop_, &cache_, &target_, params);
  }

  obs::ObsContext obs_;
  EventLoop loop_;
  PageCache cache_;
  FakeTarget target_;
  std::unique_ptr<Writeback> wb_;
};

TEST_F(WritebackTest, PeriodicFlushRespectsDirtyExpiry) {
  WritebackParams params;
  params.period = Seconds(5);
  params.dirty_expire = Seconds(10);
  MakeWriteback(params);
  wb_->Start();
  cache_.Insert(1, 0, 42, true);  // dirtied at t=0
  // First tick at 5 s: page is only 5 s old -> not flushed.
  loop_.RunUntil(Seconds(6));
  EXPECT_EQ(cache_.DirtyCount(), 1u);
  // Second tick at 10 s: page is 10 s old -> flushed.
  loop_.RunUntil(Seconds(11));
  EXPECT_EQ(cache_.DirtyCount(), 0u);
  EXPECT_EQ(target_.pages_flushed, 1u);
}

TEST_F(WritebackTest, MaybeKickFlushesWhenRatioHigh) {
  WritebackParams params;
  params.dirty_ratio = 0.10;  // 10 pages of 100
  MakeWriteback(params);
  wb_->Start();
  for (PageIdx p = 0; p < 9; ++p) {
    cache_.Insert(1, p, p, true);
  }
  wb_->MaybeKick();  // 9% < 10%: no flush
  loop_.RunUntil(Millis(100));
  EXPECT_EQ(cache_.DirtyCount(), 9u);
  cache_.Insert(1, 9, 9, true);
  wb_->MaybeKick();  // 10%: flush everything regardless of age
  loop_.RunUntil(Millis(200));
  EXPECT_EQ(cache_.DirtyCount(), 0u);
}

TEST_F(WritebackTest, SyncDrainsAllDirtyPages) {
  MakeWriteback(WritebackParams());
  for (PageIdx p = 0; p < 30; ++p) {
    cache_.Insert(2, p, p, true);
  }
  bool done = false;
  wb_->Sync([&] { done = true; });
  loop_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(cache_.DirtyCount(), 0u);
  EXPECT_EQ(target_.pages_flushed, 30u);
}

TEST_F(WritebackTest, SyncOnCleanCacheCompletesImmediately) {
  MakeWriteback(WritebackParams());
  bool done = false;
  wb_->Sync([&] { done = true; });
  EXPECT_TRUE(done);  // no dirty pages: synchronous completion
}

TEST_F(WritebackTest, BatchLimitSplitsLargeFlush) {
  WritebackParams params;
  params.batch_pages = 10;
  MakeWriteback(params);
  for (PageIdx p = 0; p < 25; ++p) {
    cache_.Insert(3, p, p, true);
  }
  bool done = false;
  wb_->Sync([&] { done = true; });
  loop_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(cache_.DirtyCount(), 0u);
  EXPECT_GE(target_.passes, 3u);  // 25 pages / 10 per pass
}

TEST_F(WritebackTest, StopCancelsPeriodicTicks) {
  WritebackParams params;
  params.period = Seconds(5);
  params.dirty_expire = 0;
  MakeWriteback(params);
  wb_->Start();
  wb_->Stop();
  cache_.Insert(1, 0, 1, true);
  loop_.RunUntil(Seconds(60));
  EXPECT_EQ(cache_.DirtyCount(), 1u);
  EXPECT_EQ(target_.passes, 0u);
}

}  // namespace
}  // namespace duet
