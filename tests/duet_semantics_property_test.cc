// Property test of the Duet notification algebra (paper §3.2 / Table 2)
// against an executable reference model.
//
// For one page, a random interleaving of cache operations and fetches is
// generated. The reference model tracks, per session:
//  * which event types occurred since the last fetch (event subscriptions);
//  * the page state at the last fetch vs now (state subscriptions).
// The real DuetCore must report exactly what the model predicts: accumulated
// event bits, state items only on net change, with current polarity.
//
// The descriptor-store test below runs the same model per page and session
// over sparse keys (three of 300 files, pages 0-7 and 1<<16) with two
// sessions at once, done marking, eviction and file deletion, and also
// checks which pages hold a descriptor.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

struct ReferenceModel {
  // Page state in the (modeled) cache.
  bool exists = false;
  bool modified = false;
  // Accumulated-but-unfetched event bits.
  uint8_t pending_events = 0;
  // State snapshot at the last fetch.
  bool reported_exists = false;
  bool reported_modified = false;

  // Applies an event to the page state, and to the pending event bits when
  // it is `delivered` to the session (not skipped as done).
  void Apply(PageEventType type, bool delivered = true) {
    switch (type) {
      case PageEventType::kAdded:
        exists = true;
        pending_events |= delivered ? kDuetPageAdded : 0;
        break;
      case PageEventType::kRemoved:
        exists = false;
        modified = false;
        pending_events |= delivered ? kDuetPageRemoved : 0;
        break;
      case PageEventType::kDirtied:
        modified = true;
        pending_events |= delivered ? kDuetPageDirtied : 0;
        break;
      case PageEventType::kFlushed:
        modified = false;
        pending_events |= delivered ? kDuetPageFlushed : 0;
        break;
    }
  }

  // Expected item flags for a session with `mask`; 0 = no item.
  uint8_t ExpectedFlags(uint8_t mask) {
    uint8_t out = pending_events & mask & kDuetEventMask;
    if ((mask & kDuetPageExists) != 0 && reported_exists != exists) {
      out |= exists ? kDuetPageExists : kDuetPageRemoved;
    }
    if ((mask & kDuetPageModified) != 0 && reported_modified != modified) {
      out |= modified ? kDuetPageModified : kDuetPageFlushed;
    }
    return out;
  }

  void MarkFetched() {
    pending_events = 0;
    reported_exists = exists;
    reported_modified = modified;
  }
};

class DuetSemanticsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DuetSemanticsPropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  SimRig rig(100'000);
  CowFs fs(&rig.loop, &rig.device, 64);
  DuetCore duet(&fs);
  InodeNo ino = *fs.PopulateFile("/f", kPageSize);
  uint64_t token = 1000;

  // A random subscription mask (at least one bit).
  uint8_t mask = 0;
  while (mask == 0) {
    mask = static_cast<uint8_t>(rng.Uniform(64));
  }
  SessionId sid = *duet.RegisterBlockTask(mask);
  ReferenceModel model;  // page not cached at registration: model in sync

  for (int step = 0; step < 300; ++step) {
    uint64_t action = rng.Uniform(6);
    switch (action) {
      case 0:  // add (insert clean) — only when absent
        if (!model.exists) {
          fs.cache().Insert(ino, 0, ++token, false);
          model.Apply(PageEventType::kAdded);
        }
        break;
      case 1:  // remove — only when present and clean (LRU never evicts dirty)
        if (model.exists && !model.modified) {
          ASSERT_TRUE(fs.cache().Remove(ino, 0));
          model.Apply(PageEventType::kRemoved);
        }
        break;
      case 2:  // dirty
        if (model.exists && !model.modified) {
          ASSERT_TRUE(fs.cache().MarkDirty(ino, 0, ++token));
          model.Apply(PageEventType::kDirtied);
        }
        break;
      case 3:  // flush
        if (model.exists && model.modified) {
          ASSERT_TRUE(fs.cache().MarkClean(ino, 0));
          model.Apply(PageEventType::kFlushed);
        }
        break;
      default: {  // fetch
        uint8_t expected = model.ExpectedFlags(mask);
        Result<std::vector<DuetItem>> items = duet.Fetch(sid, 16);
        ASSERT_TRUE(items.ok());
        if (expected == 0) {
          ASSERT_TRUE(items->empty())
              << "step " << step << ": expected no item, got flags "
              << int((*items)[0].flags);
        } else {
          ASSERT_EQ(items->size(), 1u) << "step " << step;
          EXPECT_EQ((*items)[0].flags, expected) << "step " << step;
          EXPECT_EQ((*items)[0].id, *fs.Bmap(ino, 0));
        }
        model.MarkFetched();
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuetSemanticsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                           13, 14, 15, 16));

// Sessions of the descriptor-store test: a block state session, as backup
// registers, and a file event session on "/".
constexpr int kBlockSession = 0;
constexpr int kFileSession = 1;
constexpr int kSessions = 2;
constexpr int kFiles = 3;

// Interest as DuetCore computes it: the event's bit or the state bit the
// event moves.
bool Interested(uint8_t mask, PageEventType type) {
  switch (type) {
    case PageEventType::kAdded:
      return (mask & (kDuetPageAdded | kDuetPageExists)) != 0;
    case PageEventType::kRemoved:
      return (mask & (kDuetPageRemoved | kDuetPageExists)) != 0;
    case PageEventType::kDirtied:
      return (mask & (kDuetPageDirtied | kDuetPageModified)) != 0;
    case PageEventType::kFlushed:
      return (mask & (kDuetPageFlushed | kDuetPageModified)) != 0;
  }
  return false;
}

// One page of the descriptor-store test: a ReferenceModel per session (their
// page states move together), whether the session has the page queued for
// its next fetch, and whether the page has a descriptor. A descriptor is
// created when an event is delivered to some session and freed once the page
// is gone (a state session exists throughout) and no session has anything
// to report; freeing forgets every session's reported state. An event a
// session skips because the page's item is done brings that session's
// snapshot up to date when it has nothing queued for the page.
struct PageModel {
  InodeNo ino = kInvalidInode;
  PageIdx idx = 0;
  BlockNo block = kInvalidBlock;
  int file = 0;
  std::array<ReferenceModel, kSessions> view;
  std::array<bool, kSessions> queued{};
  bool descriptor = false;
  bool block_done = false;  // the block session has this page's block done

  bool exists() const { return view[0].exists; }
  bool modified() const { return view[0].modified; }
};

class DuetDescriptorStorePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  DuetDescriptorStorePropertyTest()
      : rig_(1'000'000), fs_(&rig_.loop, &rig_.device, 64), duet_(&fs_) {}

  void SetUp() override {
    // 300 files; the 1st, 7th and 300th carry the test's pages, so their
    // inode numbers are far apart.
    const int kUsed[kFiles] = {0, 6, 299};
    const PageIdx kPages[] = {0, 1, 2, 3, 4, 5, 6, 7, PageIdx{1} << 16};
    for (int n = 0, f = 0; n < 300; ++n) {
      bool used = f < kFiles && n == kUsed[f];
      uint64_t bytes = used ? ((PageIdx{1} << 16) + 1) * kPageSize : kPageSize;
      InodeNo ino = *fs_.PopulateFile("/f" + std::to_string(n), bytes);
      if (used) {
        inos_[f++] = ino;
      }
    }
    for (int f = 0; f < kFiles; ++f) {
      for (PageIdx idx : kPages) {
        PageModel page;
        page.ino = inos_[f];
        page.idx = idx;
        page.block = *fs_.Bmap(inos_[f], idx);
        page.file = f;
        pages_.push_back(page);
      }
    }
    Rng rng(GetParam());
    mask_[kBlockSession] = kDuetPageExists;
    while (mask_[kFileSession] == 0) {
      mask_[kFileSession] = static_cast<uint8_t>(rng.Uniform(16));  // event bits only
    }
    sid_[kBlockSession] = *duet_.RegisterBlockTask(mask_[kBlockSession]);
    sid_[kFileSession] = *duet_.RegisterFileTask("/", mask_[kFileSession]);
  }

  bool Done(const PageModel& p, int s) const {
    return s == kBlockSession ? p.block_done : file_done_[p.file];
  }

  void Forget(PageModel& p) {
    for (int s = 0; s < kSessions; ++s) {
      p.view[s].pending_events = 0;
      p.view[s].reported_exists = false;
      p.view[s].reported_modified = false;
      p.queued[s] = false;
    }
  }

  void MaybeFree(PageModel& p) {
    if (!p.descriptor || p.exists()) {
      return;
    }
    for (int s = 0; s < kSessions; ++s) {
      if (p.view[s].ExpectedFlags(mask_[s]) != 0) {
        return;
      }
    }
    p.descriptor = false;
    Forget(p);
  }

  // The model's side of one page-cache hook.
  void Event(PageModel& p, PageEventType type) {
    bool any_interested = false;
    for (int s = 0; s < kSessions; ++s) {
      bool deliver = Interested(mask_[s], type) && !Done(p, s);
      any_interested |= Interested(mask_[s], type);
      if (deliver && !p.descriptor) {
        p.descriptor = true;  // a fresh descriptor: every session starts clean
        Forget(p);
      }
      p.view[s].Apply(type, deliver);
      if (deliver && p.view[s].ExpectedFlags(mask_[s]) != 0) {
        p.queued[s] = true;
      } else if (!deliver && Interested(mask_[s], type) && p.descriptor &&
                 !p.queued[s]) {
        // Skipped as done with nothing queued: the snapshot catches up with
        // the page, so the skipped change is never reported.
        p.view[s].MarkFetched();
      }
    }
    if (any_interested) {
      MaybeFree(p);
    }
  }

  // The session's snapshot is brought up to date (as at a fetch) and its
  // queued mark dropped: what Fetch does per page, and SetDone per
  // descriptor.
  void MarkUpToDate(PageModel& p, int s) {
    p.view[s].MarkFetched();
    p.queued[s] = false;
    MaybeFree(p);
  }

  void FetchAndCheck(int s, const std::string& where) {
    std::map<std::pair<uint64_t, uint64_t>, uint8_t> want;
    for (PageModel& p : pages_) {
      if (!p.queued[s]) {
        continue;
      }
      uint8_t flags = p.view[s].ExpectedFlags(mask_[s]);
      // A block item of a deleted file has no block left: Fetch drops it.
      if (flags != 0 && !(s == kBlockSession && deleted_[p.file])) {
        if (s == kBlockSession) {
          want[{p.block, 0}] = flags;
        } else {
          want[{p.ino, p.idx * kPageSize}] = flags;
        }
      }
      MarkUpToDate(p, s);
    }
    Result<std::vector<DuetItem>> items = duet_.Fetch(sid_[s], 1 << 20);
    ASSERT_TRUE(items.ok());
    std::map<std::pair<uint64_t, uint64_t>, uint8_t> got;
    for (const DuetItem& item : *items) {
      ASSERT_TRUE(got.emplace(std::pair{item.id, item.offset}, item.flags).second)
          << where << ": item reported twice";
    }
    ASSERT_EQ(got, want) << where << ": session " << s;
  }

  void CheckCounts(const std::string& where) {
    uint64_t descriptors = 0;
    std::array<uint64_t, kSessions> queued{};
    for (const PageModel& p : pages_) {
      descriptors += p.descriptor;
      for (int s = 0; s < kSessions; ++s) {
        queued[s] += p.queued[s];
      }
    }
    ASSERT_EQ(duet_.descriptor_count(), descriptors) << where;
    for (int s = 0; s < kSessions; ++s) {
      ASSERT_EQ(duet_.PendingCount(sid_[s]), queued[s]) << where << ": session " << s;
    }
  }

  SimRig rig_;
  CowFs fs_;
  DuetCore duet_;
  std::array<InodeNo, kFiles> inos_{};
  std::array<bool, kFiles> deleted_{};
  std::array<bool, kFiles> file_done_{};
  std::array<SessionId, kSessions> sid_{};
  std::array<uint8_t, kSessions> mask_{};
  std::vector<PageModel> pages_;
  uint64_t token_ = 1000;
};

TEST_P(DuetDescriptorStorePropertyTest, MatchesReferenceModelOverSparseKeys) {
  Rng rng(GetParam() * 7919);
  PageCache& cache = fs_.cache();
  constexpr int kSteps = 3000;
  for (int step = 0; step < kSteps; ++step) {
    std::string where = "step " + std::to_string(step);
    PageModel& p = pages_[rng.Uniform(pages_.size())];
    bool live = !deleted_[p.file];
    uint64_t action = rng.Uniform(100);
    if (action < 20) {  // add, clean or dirty
      if (live && !p.exists()) {
        bool dirty = rng.Uniform(4) == 0;
        cache.Insert(p.ino, p.idx, ++token_, dirty);
        Event(p, PageEventType::kAdded);
        if (dirty) {
          Event(p, PageEventType::kDirtied);
        }
      }
    } else if (action < 35) {  // evict (LRU never evicts dirty pages)
      if (p.exists() && !p.modified()) {
        ASSERT_TRUE(cache.Remove(p.ino, p.idx));
        Event(p, PageEventType::kRemoved);
      }
    } else if (action < 45) {  // dirty
      if (p.exists() && !p.modified()) {
        ASSERT_TRUE(cache.MarkDirty(p.ino, p.idx, ++token_));
        Event(p, PageEventType::kDirtied);
      }
    } else if (action < 55) {  // flush
      if (p.exists() && p.modified()) {
        ASSERT_TRUE(cache.MarkClean(p.ino, p.idx));
        Event(p, PageEventType::kFlushed);
      }
    } else if (action < 62) {  // block session: done / not done
      if (rng.Uniform(2) == 0) {
        ASSERT_TRUE(duet_.SetDone(sid_[kBlockSession], p.block).ok());
        p.block_done = true;
        if (live && p.descriptor) {  // a deleted file's block has no owner
          MarkUpToDate(p, kBlockSession);
        }
      } else {
        ASSERT_TRUE(duet_.UnsetDone(sid_[kBlockSession], p.block).ok());
        p.block_done = false;
      }
    } else if (action < 69) {  // file session: done / not done
      if (rng.Uniform(2) == 0) {
        ASSERT_TRUE(duet_.SetDone(sid_[kFileSession], p.ino).ok());
        file_done_[p.file] = true;
        for (PageModel& q : pages_) {
          if (q.file == p.file && q.descriptor) {
            MarkUpToDate(q, kFileSession);
          }
        }
      } else {
        ASSERT_TRUE(duet_.UnsetDone(sid_[kFileSession], p.ino).ok());
        file_done_[p.file] = false;
      }
    } else if (action < 70) {  // delete the file: every cached page is removed
      // Rare, and only in the second half, so most steps run on live files.
      if (live && step >= kSteps / 2 && rng.Uniform(8) == 0) {
        ASSERT_TRUE(fs_.DeleteFile(p.ino).ok());
        for (PageModel& q : pages_) {
          if (q.file == p.file && q.exists()) {
            Event(q, PageEventType::kRemoved);
          }
        }
        deleted_[p.file] = true;
      }
    } else {  // fetch
      FetchAndCheck(static_cast<int>(rng.Uniform(kSessions)), where);
    }
    CheckCounts(where);
  }

  // Full drain: nothing done, every page of a live file cached and then
  // removed, and both sessions fetched dry.
  for (int f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(duet_.UnsetDone(sid_[kFileSession], inos_[f]).ok());
    file_done_[f] = false;
  }
  for (PageModel& p : pages_) {
    ASSERT_TRUE(duet_.UnsetDone(sid_[kBlockSession], p.block).ok());
    p.block_done = false;
    if (!deleted_[p.file] && !p.exists()) {
      fs_.cache().Insert(p.ino, p.idx, ++token_, false);
      Event(p, PageEventType::kAdded);
    }
  }
  for (PageModel& p : pages_) {
    if (p.exists()) {
      ASSERT_TRUE(fs_.cache().Remove(p.ino, p.idx));
      Event(p, PageEventType::kRemoved);
    }
  }
  FetchAndCheck(kBlockSession, "drain");
  FetchAndCheck(kFileSession, "drain");
  CheckCounts("drain");
  // Every descriptor is freed, those of a deleted file's pages too: a page
  // that left the cache while its block was done moved the block session's
  // snapshot with it, so no stale "exists" report keeps its descriptor.
  EXPECT_EQ(duet_.descriptor_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuetDescriptorStorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                           13, 14, 15, 16));

}  // namespace
}  // namespace duet
