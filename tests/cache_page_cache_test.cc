#include "src/cache/page_cache.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace duet {
namespace {

class EventRecorder : public PageEventListener {
 public:
  void OnPageEvent(const PageEvent& event) override { events.push_back(event); }
  std::vector<PageEvent> events;
};

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheTest() : cache_(4, &loop_) { cache_.AddListener(&recorder_); }
  uint64_t Count(const char* name) const { return ctx_.metrics.CounterValue(name); }

  // The cache reports into this test's own context through its loop, which
  // also stamps dirty pages.
  obs::ObsContext ctx_;
  EventLoop loop_{ctx_};
  PageCache cache_;
  EventRecorder recorder_;
};

TEST_F(PageCacheTest, InsertAndLookup) {
  cache_.Insert(10, 0, 111, false);
  EXPECT_EQ(cache_.Lookup(10, 0), 111u);
  EXPECT_EQ(cache_.Lookup(10, 1), std::nullopt);
  EXPECT_EQ(cache_.PageCount(), 1u);
  EXPECT_EQ(Count("cache.hits"), 1u);
  EXPECT_EQ(Count("cache.misses"), 1u);
}

TEST_F(PageCacheTest, InsertEmitsAdded) {
  cache_.Insert(10, 0, 111, false);
  ASSERT_EQ(recorder_.events.size(), 1u);
  EXPECT_EQ(recorder_.events[0].type, PageEventType::kAdded);
  EXPECT_EQ(recorder_.events[0].ino, 10u);
  EXPECT_EQ(recorder_.events[0].idx, 0u);
}

TEST_F(PageCacheTest, DirtyInsertEmitsAddedThenDirtied) {
  cache_.Insert(10, 3, 42, true);
  ASSERT_EQ(recorder_.events.size(), 2u);
  EXPECT_EQ(recorder_.events[0].type, PageEventType::kAdded);
  EXPECT_EQ(recorder_.events[1].type, PageEventType::kDirtied);
  EXPECT_EQ(cache_.DirtyCount(), 1u);
}

TEST_F(PageCacheTest, MarkDirtyTransitionsOnce) {
  cache_.Insert(10, 0, 1, false);
  recorder_.events.clear();
  EXPECT_TRUE(cache_.MarkDirty(10, 0, 2));
  EXPECT_TRUE(cache_.MarkDirty(10, 0, 3));  // already dirty: data updates only
  ASSERT_EQ(recorder_.events.size(), 1u);
  EXPECT_EQ(recorder_.events[0].type, PageEventType::kDirtied);
  EXPECT_EQ(cache_.Peek(10, 0)->data, 3u);
  EXPECT_EQ(cache_.DirtyCount(), 1u);
}

TEST_F(PageCacheTest, MarkCleanEmitsFlushed) {
  cache_.Insert(10, 0, 1, true);
  recorder_.events.clear();
  EXPECT_TRUE(cache_.MarkClean(10, 0));
  EXPECT_FALSE(cache_.MarkClean(10, 0));  // already clean
  ASSERT_EQ(recorder_.events.size(), 1u);
  EXPECT_EQ(recorder_.events[0].type, PageEventType::kFlushed);
  EXPECT_EQ(cache_.DirtyCount(), 0u);
}

TEST_F(PageCacheTest, MarkDirtyOnMissingPageFails) {
  EXPECT_FALSE(cache_.MarkDirty(99, 0, 1));
  EXPECT_FALSE(cache_.MarkClean(99, 0));
  EXPECT_FALSE(cache_.Remove(99, 0));
}

TEST_F(PageCacheTest, LruEvictionOnOverflow) {
  for (InodeNo i = 1; i <= 5; ++i) {
    cache_.Insert(i, 0, i, false);
  }
  // Capacity 4: inode 1 (LRU) was evicted.
  EXPECT_EQ(cache_.PageCount(), 4u);
  EXPECT_FALSE(cache_.Contains(1, 0));
  EXPECT_TRUE(cache_.Contains(5, 0));
  EXPECT_EQ(Count("cache.evictions"), 1u);
}

TEST_F(PageCacheTest, LookupRefreshesLru) {
  for (InodeNo i = 1; i <= 4; ++i) {
    cache_.Insert(i, 0, i, false);
  }
  ASSERT_TRUE(cache_.Lookup(1, 0).has_value());  // 1 becomes MRU
  cache_.Insert(5, 0, 5, false);                 // evicts 2, not 1
  EXPECT_TRUE(cache_.Contains(1, 0));
  EXPECT_FALSE(cache_.Contains(2, 0));
}

TEST_F(PageCacheTest, DirtyPagesAreNotEvicted) {
  for (InodeNo i = 1; i <= 4; ++i) {
    cache_.Insert(i, 0, i, true);  // all dirty
  }
  cache_.Insert(5, 0, 5, false);
  // Nothing clean to evict: cache overshoots.
  EXPECT_EQ(cache_.PageCount(), 5u);
  // Cleaning one page lets a later MarkClean reclaim the overshoot.
  cache_.MarkClean(1, 0);
  EXPECT_EQ(cache_.PageCount(), 4u);
  EXPECT_FALSE(cache_.Contains(1, 0));
}

TEST_F(PageCacheTest, EvictionEmitsRemoved) {
  for (InodeNo i = 1; i <= 5; ++i) {
    cache_.Insert(i, 0, i, false);
  }
  bool saw_removed = false;
  for (const PageEvent& e : recorder_.events) {
    if (e.type == PageEventType::kRemoved && e.ino == 1) {
      saw_removed = true;
    }
  }
  EXPECT_TRUE(saw_removed);
}

TEST_F(PageCacheTest, RemoveInodeDropsAllItsPages) {
  cache_.Insert(7, 0, 1, false);
  cache_.Insert(7, 1, 2, true);
  cache_.Insert(8, 0, 3, false);
  cache_.RemoveInode(7);
  EXPECT_FALSE(cache_.Contains(7, 0));
  EXPECT_FALSE(cache_.Contains(7, 1));
  EXPECT_TRUE(cache_.Contains(8, 0));
  EXPECT_EQ(cache_.DirtyCount(), 0u);
  EXPECT_EQ(cache_.CachedPagesOfInode(7), 0u);
  EXPECT_EQ(cache_.CachedPagesOfInode(8), 1u);
}

TEST_F(PageCacheTest, PeekDoesNotTouchLruOrStats) {
  cache_.Insert(1, 0, 1, false);
  cache_.Insert(2, 0, 2, false);
  uint64_t hits = Count("cache.hits");
  EXPECT_NE(cache_.Peek(1, 0), nullptr);
  EXPECT_EQ(Count("cache.hits"), hits);
  cache_.Insert(3, 0, 3, false);
  cache_.Insert(4, 0, 4, false);
  cache_.Insert(5, 0, 5, false);  // evicts LRU = 1 despite the Peek
  EXPECT_FALSE(cache_.Contains(1, 0));
}

TEST_F(PageCacheTest, CollectDirtyReturnsOldestFirst) {
  loop_.RunUntil(100);
  cache_.Insert(1, 0, 1, true);
  loop_.RunUntil(200);
  cache_.Insert(2, 0, 2, true);
  loop_.RunUntil(300);
  auto all = cache_.CollectDirty(/*not_after=*/300, /*max=*/10);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].ino, 1u);
  EXPECT_EQ(all[1].ino, 2u);
  // Age filter: only pages dirtied at or before 150.
  auto old_only = cache_.CollectDirty(/*not_after=*/150, /*max=*/10);
  ASSERT_EQ(old_only.size(), 1u);
  EXPECT_EQ(old_only[0].ino, 1u);
  // Max cap.
  EXPECT_EQ(cache_.CollectDirty(300, 1).size(), 1u);
}

TEST_F(PageCacheTest, ForEachPageVisitsEverything) {
  cache_.Insert(1, 0, 1, false);
  cache_.Insert(1, 1, 2, true);
  cache_.Insert(2, 5, 3, false);
  uint64_t visited = 0;
  cache_.ForEachPage([&](InodeNo, PageIdx, const CachedPage&) { ++visited; });
  EXPECT_EQ(visited, 3u);
  visited = 0;
  cache_.ForEachPageOfInode(1, [&](PageIdx, const CachedPage&) { ++visited; });
  EXPECT_EQ(visited, 2u);
}

TEST_F(PageCacheTest, RemoveListenerStopsEvents) {
  cache_.RemoveListener(&recorder_);
  cache_.Insert(1, 0, 1, false);
  EXPECT_TRUE(recorder_.events.empty());
}

TEST_F(PageCacheTest, ReinsertExistingUpdatesData) {
  cache_.Insert(1, 0, 10, false);
  recorder_.events.clear();
  cache_.Insert(1, 0, 20, false);  // overwrite, still clean
  EXPECT_TRUE(recorder_.events.empty());
  EXPECT_EQ(cache_.Peek(1, 0)->data, 20u);
  EXPECT_EQ(cache_.PageCount(), 1u);
}

// The index is ordered by inode number, so ForEachPage needs no sort to
// visit inodes ascending, whatever order they were cached in.
TEST_F(PageCacheTest, ForEachPageIsInodeAscendingWhenInsertedDescending) {
  cache_.Insert(9, 0, 1, false);
  cache_.Insert(5, 2, 2, true);
  cache_.Insert(5, 0, 3, false);
  cache_.Insert(1, 4, 4, false);
  std::vector<std::tuple<InodeNo, PageIdx, uint64_t>> seen;
  cache_.ForEachPage([&](InodeNo ino, PageIdx idx, const CachedPage& page) {
    seen.emplace_back(ino, idx, page.data);
  });
  // Inodes ascending; inode 5's pages in insertion order.
  EXPECT_EQ(seen, (std::vector<std::tuple<InodeNo, PageIdx, uint64_t>>{
                      {1, 4, 4}, {5, 2, 2}, {5, 0, 3}, {9, 0, 1}}));
}

// When an inode's last page leaves, its slot array is released; caching the
// inode again must start from an empty index, with no stale slot left over
// from the pages that were there before (their arena slots are reused).
TEST_F(PageCacheTest, InodeReCachedAfterLastPageLeavesGetsFreshIndex) {
  cache_.Insert(3, 0, 10, false);
  cache_.Insert(3, 1, 11, false);
  cache_.Insert(3, 2, 12, false);
  // Evict all three pages of inode 3 (capacity 4).
  for (InodeNo i = 20; i < 24; ++i) {
    cache_.Insert(i, 0, i, false);
  }
  EXPECT_EQ(cache_.CachedPagesOfInode(3), 0u);
  for (PageIdx p = 0; p < 3; ++p) {
    EXPECT_FALSE(cache_.Contains(3, p));
  }
  cache_.Insert(3, 1, 99, false);
  EXPECT_EQ(cache_.Lookup(3, 1), 99u);
  EXPECT_EQ(cache_.Peek(3, 0), nullptr);
  EXPECT_EQ(cache_.Peek(3, 2), nullptr);
  EXPECT_EQ(cache_.CachedPagesOfInode(3), 1u);
  std::vector<PageIdx> pages;
  cache_.ForEachPageOfInode(3, [&](PageIdx idx, const CachedPage&) { pages.push_back(idx); });
  EXPECT_EQ(pages, std::vector<PageIdx>{1});

  // Same through Remove, and re-cached past the old array's end.
  EXPECT_TRUE(cache_.Remove(3, 1));
  EXPECT_EQ(cache_.CachedPagesOfInode(3), 0u);
  EXPECT_FALSE(cache_.Contains(3, 1));
  cache_.Insert(3, 500, 7, true);
  EXPECT_EQ(cache_.Lookup(3, 500), 7u);
  EXPECT_FALSE(cache_.Contains(3, 1));
  EXPECT_EQ(cache_.CachedPagesOfInode(3), 1u);
  EXPECT_EQ(cache_.DirtyCount(), 1u);
}

TEST_F(PageCacheTest, RemoveInodeOfUncachedInodeIsNoOp) {
  cache_.Insert(5, 0, 1, false);
  cache_.Insert(5, 1, 2, true);
  recorder_.events.clear();
  cache_.RemoveInode(3);        // inside the index, never cached
  cache_.RemoveInode(6);        // just past the index's end
  cache_.RemoveInode(1 << 20);  // far past it
  EXPECT_TRUE(recorder_.events.empty());
  EXPECT_EQ(cache_.PageCount(), 2u);
  EXPECT_EQ(cache_.DirtyCount(), 1u);
  EXPECT_EQ(cache_.CachedPagesOfInode(5), 2u);
  EXPECT_EQ(cache_.CachedPagesOfInode(1 << 20), 0u);
  EXPECT_FALSE(cache_.Contains(1 << 20, 0));
}

TEST_F(PageCacheTest, PageAtLargeIndex) {
  constexpr PageIdx kFar = PageIdx{1} << 20;
  cache_.Insert(2, kFar, 77, false);
  cache_.Insert(2, 0, 78, false);
  EXPECT_EQ(cache_.Lookup(2, kFar), 77u);
  EXPECT_FALSE(cache_.Contains(2, kFar - 1));
  EXPECT_FALSE(cache_.Contains(2, kFar + 1));
  EXPECT_EQ(cache_.CachedPagesOfInode(2), 2u);
  // Inode 2's page 0 is now the coldest, then kFar: four more inserts
  // evict both, in that order.
  recorder_.events.clear();
  for (InodeNo i = 10; i < 14; ++i) {
    cache_.Insert(i, 0, i, false);
  }
  std::vector<PageIdx> removed;
  for (const PageEvent& e : recorder_.events) {
    if (e.type == PageEventType::kRemoved) {
      EXPECT_EQ(e.ino, 2u);
      removed.push_back(e.idx);
    }
  }
  EXPECT_EQ(removed, (std::vector<PageIdx>{0, kFar}));
  EXPECT_FALSE(cache_.Contains(2, kFar));
  EXPECT_EQ(cache_.Lookup(2, kFar), std::nullopt);
  EXPECT_EQ(cache_.CachedPagesOfInode(2), 0u);
}

TEST(PageCacheDeathTest, PageIndexPastLimitAborts) {
  obs::ObsContext ctx;
  EventLoop loop(ctx);
  PageCache cache(4, &loop);
  constexpr PageIdx kPastLimit = PageIdx{1} << 32;
  cache.Insert(1, kPastLimit - 1, 1, false);  // the last index that fits
  EXPECT_EQ(cache.Lookup(1, kPastLimit - 1), 1u);
  EXPECT_FALSE(cache.Contains(1, kPastLimit));
  EXPECT_DEATH(cache.Insert(1, kPastLimit, 2, false), "2\\^32-page limit");
}

}  // namespace
}  // namespace duet
