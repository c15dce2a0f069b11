// Differential test of the page cache's victim order.
//
// PageCache keeps clean and dirty pages on separate sub-lists of its global
// LRU list. RefCache below is a deliberately naive model of the same policy
// over one list: eviction walks from the LRU tail past every dirty page (never
// taking the most recently used page), and writeback collection walks the same
// list filtering dirty pages. Seeded random op streams and directed cases drive
// both, and after every op the emitted events, return values, page counts,
// CollectDirty output, membership (Contains and CachedPagesOfInode of every
// key touched so far) and the full ForEachPage sequence must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <tuple>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/page_cache.h"

namespace duet {
namespace {

struct Ev {
  PageEventType type;
  InodeNo ino;
  PageIdx idx;
  bool exists;
  bool dirty;
  bool operator==(const Ev&) const = default;
};

using PageRow = std::tuple<InodeNo, PageIdx, uint64_t, bool>;

std::string Describe(const std::vector<Ev>& evs) {
  std::ostringstream out;
  for (const Ev& e : evs) {
    out << PageEventTypeName(e.type) << "(" << e.ino << "," << e.idx << ","
        << e.exists << e.dirty << ") ";
  }
  return out.str();
}

class Recorder : public PageEventListener {
 public:
  void OnPageEvent(const PageEvent& e) override {
    events.push_back(Ev{e.type, e.ino, e.idx, e.exists, e.dirty});
  }
  std::vector<Ev> events;
};

// Single-list reference: front = most recently used.
class RefCache {
 public:
  RefCache(uint64_t capacity, const EventLoop* loop) : capacity_(capacity), loop_(loop) {}

  std::optional<uint64_t> Lookup(InodeNo ino, PageIdx idx) {
    auto it = Find(ino, idx);
    if (it == lru_.end()) {
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it);
    return it->data;
  }

  void Insert(InodeNo ino, PageIdx idx, uint64_t data, bool dirty) {
    auto it = Find(ino, idx);
    if (it != lru_.end()) {
      it->data = data;
      lru_.splice(lru_.begin(), lru_, it);
      if (dirty && !it->dirty) {
        it->dirty = true;
        it->dirtied_at = loop_->now();
        events.push_back(Ev{PageEventType::kDirtied, ino, idx, true, true});
      }
      return;
    }
    lru_.push_front(Page{ino, idx, data, dirty, dirty ? loop_->now() : 0, next_seq_++});
    events.push_back(Ev{PageEventType::kAdded, ino, idx, true, dirty});
    if (dirty) {
      events.push_back(Ev{PageEventType::kDirtied, ino, idx, true, true});
    }
    EvictIfNeeded();
  }

  bool MarkDirty(InodeNo ino, PageIdx idx, uint64_t data) {
    auto it = Find(ino, idx);
    if (it == lru_.end()) {
      return false;
    }
    it->data = data;
    lru_.splice(lru_.begin(), lru_, it);
    if (!it->dirty) {
      it->dirty = true;
      it->dirtied_at = loop_->now();
      events.push_back(Ev{PageEventType::kDirtied, ino, idx, true, true});
    }
    return true;
  }

  bool MarkClean(InodeNo ino, PageIdx idx) {
    auto it = Find(ino, idx);
    if (it == lru_.end() || !it->dirty) {
      return false;
    }
    it->dirty = false;
    events.push_back(Ev{PageEventType::kFlushed, ino, idx, true, false});
    EvictIfNeeded();
    return true;
  }

  bool Remove(InodeNo ino, PageIdx idx) {
    auto it = Find(ino, idx);
    if (it == lru_.end()) {
      return false;
    }
    lru_.erase(it);
    events.push_back(Ev{PageEventType::kRemoved, ino, idx, false, false});
    return true;
  }

  // Pages of `ino` go in cache-insertion order.
  void RemoveInode(InodeNo ino) {
    std::vector<std::pair<uint64_t, PageIdx>> pages;
    for (const Page& p : lru_) {
      if (p.ino == ino) {
        pages.emplace_back(p.seq, p.idx);
      }
    }
    std::sort(pages.begin(), pages.end());
    for (const auto& [seq, idx] : pages) {
      Remove(ino, idx);
    }
  }

  std::vector<std::pair<InodeNo, PageIdx>> CollectDirty(SimTime not_after,
                                                        uint64_t max) const {
    std::vector<std::pair<InodeNo, PageIdx>> out;
    for (auto it = lru_.rbegin(); it != lru_.rend() && out.size() < max; ++it) {
      if (it->dirty && it->dirtied_at <= not_after) {
        out.emplace_back(it->ino, it->idx);
      }
    }
    return out;
  }

  std::vector<std::pair<InodeNo, PageIdx>> DirtyPages() const {
    std::vector<std::pair<InodeNo, PageIdx>> out;
    for (const Page& p : lru_) {
      if (p.dirty) {
        out.emplace_back(p.ino, p.idx);
      }
    }
    return out;
  }

  bool Contains(InodeNo ino, PageIdx idx) const {
    return std::any_of(lru_.begin(), lru_.end(),
                       [&](const Page& p) { return p.ino == ino && p.idx == idx; });
  }

  uint64_t CachedPagesOfInode(InodeNo ino) const {
    return std::count_if(lru_.begin(), lru_.end(), [&](const Page& p) { return p.ino == ino; });
  }

  // Every page as (ino, idx, data, dirty): inodes ascending, then each
  // inode's pages in cache-insertion order.
  std::vector<PageRow> AllPages() const {
    std::vector<const Page*> pages;
    for (const Page& p : lru_) {
      pages.push_back(&p);
    }
    std::sort(pages.begin(), pages.end(), [](const Page* a, const Page* b) {
      return std::tie(a->ino, a->seq) < std::tie(b->ino, b->seq);
    });
    std::vector<PageRow> out;
    for (const Page* p : pages) {
      out.emplace_back(p->ino, p->idx, p->data, p->dirty);
    }
    return out;
  }

  uint64_t PageCount() const { return lru_.size(); }
  uint64_t DirtyCount() const {
    return std::count_if(lru_.begin(), lru_.end(), [](const Page& p) { return p.dirty; });
  }

  std::vector<Ev> events;

 private:
  struct Page {
    InodeNo ino;
    PageIdx idx;
    uint64_t data;
    bool dirty;
    SimTime dirtied_at;
    uint64_t seq;  // insertion order, for RemoveInode
  };

  std::list<Page>::iterator Find(InodeNo ino, PageIdx idx) {
    return std::find_if(lru_.begin(), lru_.end(),
                        [&](const Page& p) { return p.ino == ino && p.idx == idx; });
  }

  // Walk from the tail past dirty pages, never taking the list head.
  void EvictIfNeeded() {
    if (lru_.size() <= capacity_) {
      return;
    }
    uint64_t need = lru_.size() - capacity_;
    std::vector<std::pair<InodeNo, PageIdx>> victims;
    for (auto it = lru_.rbegin(); it != lru_.rend() && victims.size() < need; ++it) {
      if (std::next(it) == lru_.rend()) {
        break;  // the head
      }
      if (!it->dirty) {
        victims.emplace_back(it->ino, it->idx);
      }
    }
    for (const auto& [ino, idx] : victims) {
      Remove(ino, idx);
    }
  }

  uint64_t capacity_;
  const EventLoop* loop_;
  std::list<Page> lru_;
  uint64_t next_seq_ = 0;
};

// Applies each op to both caches and checks they agree after it.
class Differential {
 public:
  explicit Differential(uint64_t capacity)
      : cache_(capacity, &loop_), ref_(capacity, &loop_) {
    loop_.RunUntil(1);
    cache_.AddListener(&recorder_);
  }

  void Advance(SimTime dt) { loop_.RunUntil(loop_.now() + dt); }
  SimTime now() const { return loop_.now(); }

  void Insert(InodeNo ino, PageIdx idx, uint64_t data, bool dirty) {
    keys_.emplace(ino, idx);
    cache_.Insert(ino, idx, data, dirty);
    ref_.Insert(ino, idx, data, dirty);
    Check("Insert");
  }
  void Lookup(InodeNo ino, PageIdx idx) {
    keys_.emplace(ino, idx);
    EXPECT_EQ(cache_.Lookup(ino, idx), ref_.Lookup(ino, idx));
    Check("Lookup");
  }
  void MarkDirty(InodeNo ino, PageIdx idx, uint64_t data) {
    keys_.emplace(ino, idx);
    EXPECT_EQ(cache_.MarkDirty(ino, idx, data), ref_.MarkDirty(ino, idx, data));
    Check("MarkDirty");
  }
  void MarkClean(InodeNo ino, PageIdx idx) {
    keys_.emplace(ino, idx);
    EXPECT_EQ(cache_.MarkClean(ino, idx), ref_.MarkClean(ino, idx));
    Check("MarkClean");
  }
  void Remove(InodeNo ino, PageIdx idx) {
    keys_.emplace(ino, idx);
    EXPECT_EQ(cache_.Remove(ino, idx), ref_.Remove(ino, idx));
    Check("Remove");
  }
  void RemoveInode(InodeNo ino) {
    keys_.emplace(ino, 0);
    cache_.RemoveInode(ino);
    ref_.RemoveInode(ino);
    Check("RemoveInode");
  }

  // Dirty pages, most recently used first.
  std::vector<std::pair<InodeNo, PageIdx>> DirtyPages() const { return ref_.DirtyPages(); }
  const PageCache& cache() const { return cache_; }
  // Events of the last op (identical on both sides once Check passed).
  const std::vector<Ev>& last_events() const { return last_events_; }

 private:
  void Check(const char* op) {
    ++ops_;
    ASSERT_EQ(recorder_.events, ref_.events)
        << op << " #" << ops_ << "\n  cache: " << Describe(recorder_.events)
        << "\n  ref:   " << Describe(ref_.events);
    last_events_ = std::move(recorder_.events);
    recorder_.events.clear();
    ref_.events.clear();
    ASSERT_EQ(cache_.PageCount(), ref_.PageCount()) << op << " #" << ops_;
    ASSERT_EQ(cache_.DirtyCount(), ref_.DirtyCount()) << op << " #" << ops_;
    for (SimTime not_after : {SimTime{0}, now() / 2, now()}) {
      for (uint64_t max : {uint64_t{1}, uint64_t{3}, ~uint64_t{0}}) {
        std::vector<std::pair<InodeNo, PageIdx>> got;
        for (const PageCache::DirtyPageRef& r : cache_.CollectDirty(not_after, max)) {
          got.emplace_back(r.ino, r.idx);
        }
        ASSERT_EQ(got, ref_.CollectDirty(not_after, max))
            << op << " #" << ops_ << " not_after=" << not_after << " max=" << max;
      }
    }
    for (const auto& [ino, idx] : keys_) {
      ASSERT_EQ(cache_.Contains(ino, idx), ref_.Contains(ino, idx))
          << op << " #" << ops_ << " (" << ino << "," << idx << ")";
      ASSERT_EQ(cache_.CachedPagesOfInode(ino), ref_.CachedPagesOfInode(ino))
          << op << " #" << ops_ << " inode " << ino;
    }
    std::vector<PageRow> pages;
    cache_.ForEachPage([&](InodeNo ino, PageIdx idx, const CachedPage& page) {
      pages.emplace_back(ino, idx, page.data, page.dirty);
    });
    ASSERT_EQ(pages, ref_.AllPages()) << op << " #" << ops_;
  }

  obs::ObsContext ctx_;
  EventLoop loop_{ctx_};
  PageCache cache_;
  RefCache ref_;
  Recorder recorder_;
  std::vector<Ev> last_events_;
  // Every (inode, page) an op has named, for the membership checks.
  std::set<std::pair<InodeNo, PageIdx>> keys_;
  uint64_t ops_ = 0;
};

std::vector<PageIdx> RemovedPages(const std::vector<Ev>& evs) {
  std::vector<PageIdx> out;
  for (const Ev& e : evs) {
    if (e.type == PageEventType::kRemoved) {
      out.push_back(e.idx);
    }
  }
  return out;
}

// Random streams over a small but sparse key space (3 non-contiguous inodes x
// 9 pages, one far past the rest) so pages are revisited, evicted and
// re-inserted often, and inode records and slot arrays are created, grown
// and released. MarkClean picks any dirty page, not only the oldest.
void RunRandomStream(uint64_t seed, uint64_t capacity, int ops) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " capacity " + std::to_string(capacity));
  std::mt19937_64 rng(seed);
  auto pick = [&rng](uint64_t n) { return std::uniform_int_distribution<uint64_t>(0, n - 1)(rng); };
  Differential d(capacity);
  for (int i = 0; i < ops && !::testing::Test::HasFatalFailure(); ++i) {
    d.Advance(pick(3));
    constexpr InodeNo kInodes[] = {1, 7, 4096};
    InodeNo ino = kInodes[pick(3)];
    PageIdx idx = pick(9);
    if (idx == 8) {
      idx = PageIdx{1} << 16;
    }
    uint64_t roll = pick(100);
    if (roll < 25) {
      d.Insert(ino, idx, rng(), /*dirty=*/false);
    } else if (roll < 40) {
      d.Insert(ino, idx, rng(), /*dirty=*/true);
    } else if (roll < 55) {
      d.Lookup(ino, idx);
    } else if (roll < 67) {
      d.MarkDirty(ino, idx, rng());
    } else if (roll < 90) {
      auto dirty = d.DirtyPages();
      if (dirty.empty()) {
        d.MarkClean(ino, idx);  // a no-op on a clean or absent page
      } else {
        auto [dino, didx] = dirty[pick(dirty.size())];
        d.MarkClean(dino, didx);
      }
    } else if (roll < 98) {
      d.Remove(ino, idx);
    } else {
      d.RemoveInode(ino);
    }
  }
}

TEST(PageCacheLruOrderTest, RandomStreamsMatchSingleListReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (uint64_t capacity : {1, 2, 3, 5, 8, 13}) {
      RunRandomStream(seed, capacity, 400);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(PageCacheLruOrderTest, LongDirtyRunPinnedAtTail) {
  Differential d(40);
  for (PageIdx i = 0; i < 30; ++i) {
    d.Insert(1, i, i, /*dirty=*/true);
  }
  // Clean pages stream past the dirty run: each eviction takes the oldest
  // clean page, never a dirty one.
  for (PageIdx i = 0; i < 200; ++i) {
    d.Insert(2, i, i, /*dirty=*/false);
    if (i >= 10) {
      EXPECT_EQ(RemovedPages(d.last_events()), std::vector<PageIdx>{i - 10});
    }
  }
  EXPECT_EQ(d.cache().DirtyCount(), 30u);
  // Writeback cleans the run oldest-first; each newly clean page is then the
  // coldest clean page and goes next.
  for (PageIdx i = 0; i < 30; ++i) {
    d.MarkClean(1, i);
    d.Insert(3, i, i, /*dirty=*/false);
    EXPECT_EQ(RemovedPages(d.last_events()), std::vector<PageIdx>{i});
  }
}

TEST(PageCacheLruOrderTest, CleaningNewestDirtyPageFirst) {
  Differential d(6);
  // Global order, oldest first: c0 D1 c2 D3 D4 c5.
  d.Insert(1, 0, 0, false);
  d.Insert(1, 1, 1, true);
  d.Insert(1, 2, 2, false);
  d.Insert(1, 3, 3, true);
  d.Insert(1, 4, 4, true);
  d.Insert(1, 5, 5, false);
  // Clean newest-first: each page must slot in at its LRU position.
  d.MarkClean(1, 4);
  d.MarkClean(1, 3);
  d.MarkClean(1, 1);
  // Each overflow evicts in the original LRU order.
  for (PageIdx i = 0; i < 6; ++i) {
    d.Insert(2, i, i, false);
    EXPECT_EQ(RemovedPages(d.last_events()), std::vector<PageIdx>{i});
  }
}

TEST(PageCacheLruOrderTest, DirtyHeadIsNeverAVictimAndCleanHeadStaysPut) {
  Differential d(1);
  d.Insert(1, 0, 0, /*dirty=*/true);
  // The only clean page is the head: nothing is evicted, the cache stays
  // over capacity until writeback runs.
  d.Insert(1, 1, 1, /*dirty=*/false);
  EXPECT_TRUE(RemovedPages(d.last_events()).empty());
  EXPECT_EQ(d.cache().PageCount(), 2u);
  // Touching the dirty page makes it the head; the clean page is now evictable
  // on the next overflow check.
  d.MarkDirty(1, 0, 7);
  d.MarkClean(1, 0);
  EXPECT_EQ(RemovedPages(d.last_events()), std::vector<PageIdx>{1});
  EXPECT_EQ(d.cache().PageCount(), 1u);
}

TEST(PageCacheLruOrderTest, EmptyCleanSubList) {
  Differential d(2);
  for (PageIdx i = 0; i < 5; ++i) {
    d.Insert(1, i, i, /*dirty=*/true);
  }
  EXPECT_EQ(d.cache().DirtyCount(), 5u);
  // Cleaning a page in the middle of an all-dirty list gives it an empty
  // clean sub-list to join; it is not the head, so it goes at once.
  d.MarkClean(1, 2);
  EXPECT_EQ(RemovedPages(d.last_events()), std::vector<PageIdx>{2});
  // Cleaning the head: it is the only clean page and is kept.
  d.MarkClean(1, 4);
  EXPECT_TRUE(RemovedPages(d.last_events()).empty());
  // The oldest page joins below it and is evicted.
  d.MarkClean(1, 0);
  EXPECT_EQ(RemovedPages(d.last_events()), std::vector<PageIdx>{0});
  d.MarkClean(1, 1);
  EXPECT_EQ(RemovedPages(d.last_events()), std::vector<PageIdx>{1});
  EXPECT_EQ(d.cache().PageCount(), 2u);
}

}  // namespace
}  // namespace duet
