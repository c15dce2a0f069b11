#include "src/util/page_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace duet {
namespace {

constexpr uint32_t kNoSlot = PageIndex<>::kNoSlot;

// Per-inode data with a non-zero default, so a reset record is visible.
struct Tag {
  uint64_t value = 42;
};

// Every (idx, slot) ForEachOfInode reports for `ino`, in call order.
template <typename Index>
std::vector<std::pair<PageIdx, uint32_t>> PagesOf(const Index& index, InodeNo ino) {
  std::vector<std::pair<PageIdx, uint32_t>> out;
  index.ForEachOfInode(ino, [&](PageIdx idx, uint32_t slot) { out.emplace_back(idx, slot); });
  return out;
}

TEST(PageIndexTest, RecordsAreSixteenBytesPlusInodeData) {
  // The page cache's record (8 B of chain ends) stays 24 B and Duet's, with
  // no inode data, is 16 B: one record exists per inode number.
  PageIndex<> bare;
  bare.Insert(1, 0, 5);
  PageIndex<Tag> tagged;
  tagged.Insert(1, 0, 5);
  // Two records each (inodes 0 and 1), plus one 8-entry slot array.
  EXPECT_EQ(bare.MemoryBytes(), 2 * 16 + 8 * sizeof(uint32_t));
  EXPECT_EQ(tagged.MemoryBytes(), 2 * 24 + 8 * sizeof(uint32_t));
}

TEST(PageIndexTest, NonContiguousInodes) {
  PageIndex<> index;
  index.Insert(4096, 3, 30);
  index.Insert(1, 0, 10);
  index.Insert(7, 5, 70);
  index.Insert(7, 6, 71);
  EXPECT_EQ(index.Find(1, 0), 10u);
  EXPECT_EQ(index.Find(7, 5), 70u);
  EXPECT_EQ(index.Find(7, 6), 71u);
  EXPECT_EQ(index.Find(4096, 3), 30u);
  EXPECT_EQ(index.Find(1, 3), kNoSlot);
  EXPECT_EQ(index.Find(4096, 0), kNoSlot);
  EXPECT_EQ(index.Find(2, 0), kNoSlot);
  EXPECT_EQ(index.Count(1), 1u);
  EXPECT_EQ(index.Count(7), 2u);
  EXPECT_EQ(index.Count(4096), 1u);
}

TEST(PageIndexTest, PageAtLargeIndex) {
  PageIndex<> index;
  constexpr PageIdx kLarge = PageIdx{1} << 20;
  index.Insert(7, kLarge, 1);
  EXPECT_EQ(index.Find(7, kLarge), 1u);
  EXPECT_EQ(index.Find(7, kLarge - 1), kNoSlot);
  EXPECT_EQ(index.Find(7, kLarge + 1), kNoSlot);
  EXPECT_EQ(index.Find(7, 0), kNoSlot);
  // A lone page far into a file costs one fresh array, not one up to it.
  PageIndex<> near_zero;
  near_zero.Insert(7, 0, 1);
  EXPECT_EQ(index.MemoryBytes(), near_zero.MemoryBytes());
}

TEST(PageIndexTest, InsertBelowBaseGrowsDownward) {
  PageIndex<> index;
  index.Insert(1, 100, 100);
  index.Insert(1, 101, 101);
  index.Insert(1, 3, 3);  // below the array's base (96)
  EXPECT_EQ(index.Find(1, 3), 3u);
  EXPECT_EQ(index.Find(1, 100), 100u);
  EXPECT_EQ(index.Find(1, 101), 101u);
  for (PageIdx idx : {0, 2, 4, 50, 95, 99, 102, 127}) {
    EXPECT_EQ(index.Find(1, idx), kNoSlot) << idx;
  }
  EXPECT_EQ(index.Count(1), 3u);
  EXPECT_EQ(PagesOf(index, 1),
            (std::vector<std::pair<PageIdx, uint32_t>>{{3, 3}, {100, 100}, {101, 101}}));
}

TEST(PageIndexTest, ReleasedWhenLastPageLeavesAndSpareIsReused) {
  PageIndex<Tag> index;
  for (PageIdx idx = 0; idx < 8; ++idx) {
    index.Insert(1, idx, static_cast<uint32_t>(10 + idx));
  }
  index.MutableDataOf(1).value = 5;
  for (PageIdx idx = 0; idx < 8; ++idx) {
    index.Erase(1, idx);
  }
  // The record is reset: no pages, default data.
  EXPECT_EQ(index.Count(1), 0u);
  EXPECT_EQ(index.DataOf(1).value, 42u);
  for (PageIdx idx = 0; idx < 8; ++idx) {
    EXPECT_EQ(index.Find(1, idx), kNoSlot);
  }
  // The next inode to index a page takes the released array as its spare:
  // it must read as empty everywhere but the new page.
  index.Insert(7, 3, 73);
  EXPECT_EQ(index.DataOf(7).value, 42u);
  for (PageIdx idx = 0; idx < 8; ++idx) {
    EXPECT_EQ(index.Find(7, idx), idx == 3 ? 73u : kNoSlot) << idx;
    EXPECT_EQ(index.Find(1, idx), kNoSlot) << idx;
  }
  // An inode re-indexed after emptying starts afresh.
  index.Insert(1, 4, 14);
  EXPECT_EQ(index.Count(1), 1u);
  EXPECT_EQ(PagesOf(index, 1), (std::vector<std::pair<PageIdx, uint32_t>>{{4, 14}}));
}

TEST(PageIndexTest, ForEachOfInodeIsAscending) {
  PageIndex<> index;
  std::vector<PageIdx> order = {40, 7, 1 << 16, 0, 39, 8, 1000, 3};
  for (PageIdx idx : order) {
    index.Insert(4096, idx, static_cast<uint32_t>(idx + 1));
  }
  index.Insert(7, 2, 99);  // another inode's page is not reported
  std::vector<std::pair<PageIdx, uint32_t>> want;
  std::vector<PageIdx> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (PageIdx idx : sorted) {
    want.emplace_back(idx, static_cast<uint32_t>(idx + 1));
  }
  EXPECT_EQ(PagesOf(index, 4096), want);
}

TEST(PageIndexTest, CountAndDataOfUnindexedInodes) {
  PageIndex<Tag> index;
  EXPECT_EQ(index.Count(1), 0u);  // empty index
  EXPECT_EQ(index.DataOf(1).value, 42u);
  index.Insert(4096, 0, 1);
  index.MutableDataOf(4096).value = 5;
  const PageIndex<Tag>& view = index;
  // Never indexed, inside the record vector.
  EXPECT_EQ(view.Count(3), 0u);
  EXPECT_EQ(view.DataOf(3).value, 42u);
  EXPECT_TRUE(PagesOf(view, 3).empty());
  // One past the record vector.
  EXPECT_EQ(view.Count(4097), 0u);
  EXPECT_EQ(view.DataOf(4097).value, 42u);
  EXPECT_EQ(view.Find(4097, 0), kNoSlot);
  EXPECT_TRUE(PagesOf(view, 4097).empty());
  EXPECT_EQ(view.DataOf(4096).value, 5u);
}

TEST(PageIndexTest, ForEachInodeVisitsIndexedInodesAscending) {
  PageIndex<Tag> index;
  index.Insert(4096, 0, 1);
  index.Insert(1, 0, 2);
  index.Insert(7, 0, 3);
  index.Insert(5, 0, 4);
  index.Erase(5, 0);
  index.MutableDataOf(7).value = 7;
  std::vector<std::pair<InodeNo, uint64_t>> seen;
  index.ForEachInode([&](InodeNo ino, const Tag& tag) { seen.emplace_back(ino, tag.value); });
  EXPECT_EQ(seen, (std::vector<std::pair<InodeNo, uint64_t>>{{1, 42}, {7, 7}, {4096, 42}}));
}

TEST(PageIndexTest, MemoryFallsBackToRecordsOnceEmpty) {
  PageIndex<> index;
  index.Insert(4096, 0, 1);
  index.Erase(4096, 0);
  const uint64_t records_only = index.MemoryBytes();
  EXPECT_EQ(records_only, 4097 * 16u);  // the record vector, no slot array
  for (InodeNo ino : {1, 7, 4096}) {
    for (PageIdx idx = 0; idx < 300; idx += 3) {
      index.Insert(ino, idx * ino, static_cast<uint32_t>(idx));
    }
  }
  EXPECT_GT(index.MemoryBytes(), records_only);
  for (InodeNo ino : {1, 7, 4096}) {
    for (PageIdx idx = 0; idx < 300; idx += 3) {
      index.Erase(ino, idx * ino);
      EXPECT_EQ(index.MemoryBytes() == records_only, ino == 4096 && idx == 297);
    }
  }
  EXPECT_EQ(index.MemoryBytes(), records_only);
}

// Random inserts and erases over sparse keys, against std::map: Find of
// every key after every step, and each inode's full ascending walk every
// 16 steps.
TEST(PageIndexTest, MatchesMapUnderRandomChurn) {
  const InodeNo kInodes[] = {1, 7, 4096};
  const PageIdx kPages[] = {0, 1, 2, 3, 5, 7, 8, 15, 64, 1000, 1 << 16};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    PageIndex<> index;
    std::map<std::pair<InodeNo, PageIdx>, uint32_t> ref;
    for (uint32_t step = 0; step < 4000; ++step) {
      InodeNo ino = kInodes[rng.Uniform(3)];
      PageIdx idx = kPages[rng.Uniform(std::size(kPages))];
      auto it = ref.find({ino, idx});
      if (it == ref.end()) {
        index.Insert(ino, idx, step);
        ref[{ino, idx}] = step;
      } else {
        index.Erase(ino, idx);
        ref.erase(it);
      }
      for (InodeNo i : kInodes) {
        std::vector<std::pair<PageIdx, uint32_t>> want;
        for (auto r = ref.lower_bound({i, 0}); r != ref.end() && r->first.first == i; ++r) {
          want.emplace_back(r->first.second, r->second);
        }
        ASSERT_EQ(index.Count(i), want.size()) << "seed " << seed << " step " << step;
        for (PageIdx p : kPages) {
          auto r = ref.find({i, p});
          ASSERT_EQ(index.Find(i, p), r == ref.end() ? kNoSlot : r->second)
              << "seed " << seed << " step " << step;
        }
        if (step % 16 == 0) {
          ASSERT_EQ(PagesOf(index, i), want) << "seed " << seed << " step " << step;
        }
      }
    }
  }
}

TEST(PageIndexDeathTest, PageIndexPastLimitAborts) {
  PageIndex<> index;
  constexpr PageIdx kPastLimit = PageIdx{1} << 32;
  index.Insert(1, kPastLimit - 1, 1);  // the last index that fits
  EXPECT_EQ(index.Find(1, kPastLimit - 1), 1u);
  EXPECT_EQ(index.Find(1, kPastLimit), kNoSlot);
  EXPECT_DEATH(index.Insert(1, kPastLimit, 2), "2\\^32-page limit");
}

}  // namespace
}  // namespace duet
