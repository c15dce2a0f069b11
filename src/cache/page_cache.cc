#include "src/cache/page_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace duet {

const char* PageEventTypeName(PageEventType type) {
  switch (type) {
    case PageEventType::kAdded:
      return "ADDED";
    case PageEventType::kRemoved:
      return "REMOVED";
    case PageEventType::kDirtied:
      return "DIRTIED";
    case PageEventType::kFlushed:
      return "FLUSHED";
  }
  return "UNKNOWN";
}

namespace {

// Trace kinds indexed by PageEventType (kAdded..kFlushed).
constexpr obs::TraceKind kPageTraceKind[4] = {
    obs::TraceKind::kPageAdded, obs::TraceKind::kPageRemoved,
    obs::TraceKind::kPageDirtied, obs::TraceKind::kPageFlushed};

}  // namespace

PageCache::PageCache(uint64_t capacity_pages, EventLoop* loop)
    : capacity_(capacity_pages), loop_(loop), obs_(&loop->obs()) {
  assert(capacity_ > 0);
  // Pre-size the entry arena for the configured capacity: the steady state
  // allocates nothing. The page index is not pre-sized: it follows the
  // cached set, not capacity or the data.
  arena_.reserve(capacity_ + capacity_ / 4);
  free_slots_.reserve(64);
  ctr_events_[0] = obs_->metrics.GetCounter("cache.added");
  ctr_events_[1] = obs_->metrics.GetCounter("cache.removed");
  ctr_events_[2] = obs_->metrics.GetCounter("cache.dirtied");
  ctr_events_[3] = obs_->metrics.GetCounter("cache.flushed");
  ctr_hits_ = obs_->metrics.GetCounter("cache.hits");
  ctr_misses_ = obs_->metrics.GetCounter("cache.misses");
  ctr_evictions_ = obs_->metrics.GetCounter("cache.evictions");
  ctr_removed_dirty_ = obs_->metrics.GetCounter("cache.removed_dirty");
}

void PageCache::Emit(PageEventType type, InodeNo ino, PageIdx idx,
                     bool exists, bool dirty) {
  ctr_events_[static_cast<int>(type)]->Add();
  obs_->trace.Emit(loop_->now(), obs::TraceLayer::kCache,
                   kPageTraceKind[static_cast<int>(type)], ino, idx);
  PageEvent event{type, ino, idx, exists, dirty};
  for (PageEventListener* l : listeners_) {
    l->OnPageEvent(event);
  }
}

template <PageCache::Links PageCache::Entry::*L>
void PageCache::LinkBetween(List& list, uint32_t slot, uint32_t older,
                            uint32_t newer) {
  Links& links = arena_[slot].*L;
  links.older = older;
  links.newer = newer;
  (older != kNoSlot ? (arena_[older].*L).newer : list.tail) = slot;
  (newer != kNoSlot ? (arena_[newer].*L).older : list.head) = slot;
}

template <PageCache::Links PageCache::Entry::*L>
void PageCache::Unlink(List& list, uint32_t slot) {
  const Links& links = arena_[slot].*L;
  (links.older != kNoSlot ? (arena_[links.older].*L).newer : list.tail) =
      links.newer;
  (links.newer != kNoSlot ? (arena_[links.newer].*L).older : list.head) =
      links.older;
}

void PageCache::CreateEntry(InodeNo ino, PageIdx idx, uint64_t data,
                            bool dirty) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  List& chain = index_.Insert(ino, idx, slot);
  Entry& e = arena_[slot];
  e.ino = ino;
  e.idx = idx;
  e.page.data = data;
  e.page.dirty = dirty;
  e.page.dirtied_at = dirty ? loop_->now() : 0;
  if (dirty) {
    ++dirty_count_;
  }
  LinkFront<&Entry::lru>(lru_, slot);
  LinkFront<&Entry::sub>(SubListOf(e), slot);
  // Inode chain head (the chain runs tail->head in insertion order, the
  // canonical iteration order).
  LinkFront<&Entry::ino_links>(chain, slot);
  ++page_count_;
}

void PageCache::DestroyEntry(uint32_t slot) {
  Entry& e = arena_[slot];
  Unlink<&Entry::lru>(lru_, slot);
  Unlink<&Entry::sub>(SubListOf(e), slot);
  Unlink<&Entry::ino_links>(index_.MutableDataOf(e.ino), slot);
  index_.Erase(e.ino, e.idx);
  e = Entry{};
  free_slots_.push_back(slot);
  --page_count_;
}

void PageCache::MoveToLruFront(uint32_t slot) {
  if (slot == lru_.head) {
    return;  // the global head is also the head of its sub-list
  }
  Unlink<&Entry::lru>(lru_, slot);
  LinkFront<&Entry::lru>(lru_, slot);
  List& sub = SubListOf(arena_[slot]);
  if (slot != sub.head) {
    Unlink<&Entry::sub>(sub, slot);
    LinkFront<&Entry::sub>(sub, slot);
  }
}

void PageCache::SetDirty(uint32_t slot) {
  // The page is at the LRU front, so it is the newest dirty page too.
  Entry& e = arena_[slot];
  Unlink<&Entry::sub>(clean_, slot);
  LinkFront<&Entry::sub>(dirty_, slot);
  e.page.dirty = true;
  e.page.dirtied_at = loop_->now();
  ++dirty_count_;
}

void PageCache::LinkCleanInLruOrder(uint32_t slot) {
  // The nearest clean page on the global list fixes the position: link just
  // newer than an older one, or just older than a newer one. Reaching an
  // end of the global list first means no clean page lies beyond it, so the
  // page goes at that end of the clean sub-list. Searching both directions
  // in turn costs the shorter distance.
  uint32_t older = arena_[slot].lru.older;
  uint32_t newer = arena_[slot].lru.newer;
  while (true) {
    if (older == kNoSlot) {
      LinkBetween<&Entry::sub>(clean_, slot, kNoSlot, clean_.tail);
      return;
    }
    if (!arena_[older].page.dirty) {
      LinkBetween<&Entry::sub>(clean_, slot, older, arena_[older].sub.newer);
      return;
    }
    if (newer == kNoSlot) {
      LinkBetween<&Entry::sub>(clean_, slot, clean_.head, kNoSlot);
      return;
    }
    if (!arena_[newer].page.dirty) {
      LinkBetween<&Entry::sub>(clean_, slot, arena_[newer].sub.older, newer);
      return;
    }
    older = arena_[older].lru.older;
    newer = arena_[newer].lru.newer;
  }
}

std::optional<uint64_t> PageCache::Lookup(InodeNo ino, PageIdx idx) {
  uint32_t slot = index_.Find(ino, idx);
  if (slot != kNoSlot) {
    ctr_hits_->Add();
    MoveToLruFront(slot);
    return arena_[slot].page.data;
  }
  ctr_misses_->Add();
  return std::nullopt;
}

const CachedPage* PageCache::Peek(InodeNo ino, PageIdx idx) const {
  uint32_t slot = index_.Find(ino, idx);
  return slot == kNoSlot ? nullptr : &arena_[slot].page;
}

void PageCache::Insert(InodeNo ino, PageIdx idx, uint64_t data, bool dirty) {
  uint32_t slot = index_.Find(ino, idx);
  if (slot != kNoSlot) {
    // Overwrite in place; only a clean->dirty transition emits an event.
    Entry& entry = arena_[slot];
    entry.page.data = data;
    MoveToLruFront(slot);
    if (dirty && !entry.page.dirty) {
      SetDirty(slot);
      Emit(PageEventType::kDirtied, ino, idx, /*exists=*/true, /*dirty=*/true);
    }
    return;
  }
  CreateEntry(ino, idx, data, dirty);
  Emit(PageEventType::kAdded, ino, idx, /*exists=*/true, dirty);
  if (dirty) {
    Emit(PageEventType::kDirtied, ino, idx, /*exists=*/true, /*dirty=*/true);
  }
  EvictIfNeeded();
}

bool PageCache::MarkDirty(InodeNo ino, PageIdx idx, uint64_t data) {
  uint32_t slot = index_.Find(ino, idx);
  if (slot == kNoSlot) {
    return false;
  }
  Entry& entry = arena_[slot];
  entry.page.data = data;
  MoveToLruFront(slot);
  if (!entry.page.dirty) {
    SetDirty(slot);
    Emit(PageEventType::kDirtied, ino, idx, /*exists=*/true, /*dirty=*/true);
  }
  return true;
}

bool PageCache::MarkClean(InodeNo ino, PageIdx idx) {
  uint32_t slot = index_.Find(ino, idx);
  if (slot == kNoSlot || !arena_[slot].page.dirty) {
    return false;
  }
  Unlink<&Entry::sub>(dirty_, slot);
  arena_[slot].page.dirty = false;
  --dirty_count_;
  LinkCleanInLruOrder(slot);
  Emit(PageEventType::kFlushed, ino, idx, /*exists=*/true, /*dirty=*/false);
  EvictIfNeeded();  // newly clean pages may satisfy a pending overshoot
  return true;
}

bool PageCache::Remove(InodeNo ino, PageIdx idx) {
  uint32_t slot = index_.Find(ino, idx);
  if (slot == kNoSlot) {
    return false;
  }
  if (arena_[slot].page.dirty) {
    --dirty_count_;
    ctr_removed_dirty_->Add();
  }
  DestroyEntry(slot);
  Emit(PageEventType::kRemoved, ino, idx, /*exists=*/false, /*dirty=*/false);
  return true;
}

void PageCache::RemoveInode(InodeNo ino) {
  // Collect indices first: Emit may re-enter observers that inspect us.
  // Removing the last page resets the inode's record (DestroyEntry).
  std::vector<PageIdx> indices;
  indices.reserve(index_.Count(ino));
  ForEachPageOfInode(ino, [&](PageIdx idx, const CachedPage&) { indices.push_back(idx); });
  for (PageIdx idx : indices) {
    Remove(ino, idx);
  }
}

bool PageCache::Contains(InodeNo ino, PageIdx idx) const {
  return index_.Find(ino, idx) != kNoSlot;
}

uint64_t PageCache::CachedPagesOfInode(InodeNo ino) const {
  return index_.Count(ino);
}

void PageCache::ForEachPage(
    const std::function<void(InodeNo, PageIdx, const CachedPage&)>& fn) const {
  // Canonical order: inodes ascending (the index order), then insertion
  // order within each inode.
  index_.ForEachInode([&](InodeNo ino, const List& chain) {
    for (uint32_t slot = chain.tail; slot != kNoSlot; slot = arena_[slot].ino_links.newer) {
      fn(ino, arena_[slot].idx, arena_[slot].page);
    }
  });
}

void PageCache::ForEachPageOfInode(
    InodeNo ino, const std::function<void(PageIdx, const CachedPage&)>& fn) const {
  for (uint32_t slot = index_.DataOf(ino).tail; slot != kNoSlot;
       slot = arena_[slot].ino_links.newer) {
    fn(arena_[slot].idx, arena_[slot].page);
  }
}

std::vector<PageCache::DirtyPageRef> PageCache::CollectDirty(SimTime not_after,
                                                             uint64_t max) const {
  std::vector<DirtyPageRef> out;
  // Walk the dirty sub-list from its tail (coldest first), as the kernel
  // flusher does.
  for (uint32_t slot = dirty_.tail; slot != kNoSlot && out.size() < max;
       slot = arena_[slot].sub.newer) {
    const Entry& e = arena_[slot];
    if (e.page.dirtied_at <= not_after) {
      out.push_back(DirtyPageRef{e.ino, e.idx, e.page.data});
    }
  }
  return out;
}

void PageCache::SetEvictionAdvisor(EvictionAdvisor advisor, size_t window) {
  advisor_ = std::move(advisor);
  advisor_window_ = window;
}

void PageCache::AddListener(PageEventListener* listener) {
  assert(listener != nullptr);
  listeners_.push_back(listener);
}

void PageCache::RemoveListener(PageEventListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

void PageCache::EvictIfNeeded() {
  if (page_count_ <= capacity_) {
    return;
  }
  // Evict the coldest clean pages. Dirty pages stay; writeback cleans them
  // and calls back here. Victims are collected first so the walk never
  // iterates a list it is mutating.
  uint64_t need = page_count_ - capacity_;
  if (advisor_ == nullptr && need == 1) {
    // The common case, one page over capacity after an insert: with a single
    // victim, evicting it at once is the same as collecting it first, and
    // needs no victim vector.
    uint32_t slot = clean_.tail;
    if (slot != kNoSlot && slot != lru_.head) {
      Evict(arena_[slot].ino, arena_[slot].idx);
    }
    return;
  }
  struct Victim {
    InodeNo ino;
    PageIdx idx;
  };
  std::vector<Victim> victims;
  if (advisor_ != nullptr) {
    // Informed replacement: within a window of the coldest pages, evict the
    // ones the advisor marks (already-processed data) before plain LRU.
    std::vector<Victim> fallback;
    size_t scanned = 0;
    for (uint32_t slot = lru_.tail;
         slot != kNoSlot && victims.size() < need &&
         scanned < std::max<size_t>(advisor_window_, need);
         slot = arena_[slot].lru.newer, ++scanned) {
      if (slot == lru_.head) {
        break;
      }
      const Entry& e = arena_[slot];
      if (e.page.dirty) {
        continue;
      }
      if (advisor_(e.ino, e.idx)) {
        victims.push_back(Victim{e.ino, e.idx});
      } else {
        fallback.push_back(Victim{e.ino, e.idx});
      }
    }
    for (const Victim& v : fallback) {
      if (victims.size() >= need) {
        break;
      }
      victims.push_back(v);
    }
  } else {
    // The clean sub-list holds exactly the clean pages in LRU order, so this
    // takes the same victims as a tail walk of the global list that skips
    // dirty pages.
    for (uint32_t slot = clean_.tail; slot != kNoSlot && victims.size() < need;
         slot = arena_[slot].sub.newer) {
      if (slot == lru_.head) {
        break;  // never evict the page that was just inserted/touched
      }
      victims.push_back(Victim{arena_[slot].ino, arena_[slot].idx});
    }
  }
  for (const Victim& v : victims) {
    Evict(v.ino, v.idx);
  }
}

void PageCache::Evict(InodeNo ino, PageIdx idx) {
  ctr_evictions_->Add();
  obs_->trace.Emit(loop_->now(), obs::TraceLayer::kCache, obs::TraceKind::kPageEvicted,
                   ino, idx);
  Remove(ino, idx);
}

}  // namespace duet
