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

PageCache::PageCache(uint64_t capacity_pages, std::function<SimTime()> clock)
    : capacity_(capacity_pages), clock_(std::move(clock)), obs_(obs::CurrentObs()) {
  assert(capacity_ > 0);
  assert(clock_ != nullptr);
  // Pre-size the entry arena for the configured capacity: the steady state
  // allocates nothing. The page table deliberately starts small and doubles
  // on demand: sizing it for full capacity up front would spread every probe
  // across megabytes of mostly-empty cells (evicting L1/L2 on workloads
  // whose live page set is far below capacity), while demand growth keeps
  // the table proportional to the working set at O(n) amortized rehash.
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
  obs_->trace.Emit(clock_(), obs::TraceLayer::kCache,
                   kPageTraceKind[static_cast<int>(type)], ino, idx);
  PageEvent event{type, ino, idx, exists, dirty};
  for (PageEventListener* l : listeners_) {
    l->OnPageEvent(event);
  }
}

void PageCache::CommitEntry(uint32_t slot, InodeNo ino, PageIdx idx) {
  // `slot` was peeked (freelist back / arena end) before the page-table
  // probe; commit the allocation it named.
  if (!free_slots_.empty()) {
    assert(free_slots_.back() == slot);
    free_slots_.pop_back();
  } else {
    assert(slot == arena_.size());
    arena_.emplace_back();
  }
  Entry& e = arena_[slot];
  e.ino = ino;
  e.idx = idx;
  e.live = true;
  // LRU front (MRU end).
  e.lru_newer = kNoSlot;
  e.lru_older = lru_head_;
  if (lru_head_ != kNoSlot) {
    arena_[lru_head_].lru_newer = slot;
  }
  lru_head_ = slot;
  if (lru_tail_ == kNoSlot) {
    lru_tail_ = slot;
  }
  // Inode chain tail (insertion order, the canonical iteration order).
  InodeChain& chain = inode_chains_[ino];
  e.ino_next = kNoSlot;
  e.ino_prev = chain.tail;
  if (chain.tail != kNoSlot) {
    arena_[chain.tail].ino_next = slot;
  } else {
    chain.head = slot;
  }
  chain.tail = slot;
  ++chain.count;
  ++page_count_;
}

// The caller has already removed the key from the page table (fused with
// its lookup probe); this only unlinks and recycles the arena entry.
void PageCache::DestroyEntry(uint32_t slot) {
  Entry& e = arena_[slot];
  assert(e.live);
  // LRU unlink.
  if (e.lru_newer != kNoSlot) {
    arena_[e.lru_newer].lru_older = e.lru_older;
  } else {
    lru_head_ = e.lru_older;
  }
  if (e.lru_older != kNoSlot) {
    arena_[e.lru_older].lru_newer = e.lru_newer;
  } else {
    lru_tail_ = e.lru_newer;
  }
  // Inode chain unlink.
  auto it = inode_chains_.find(e.ino);
  assert(it != inode_chains_.end());
  InodeChain& chain = it->second;
  if (e.ino_prev != kNoSlot) {
    arena_[e.ino_prev].ino_next = e.ino_next;
  } else {
    chain.head = e.ino_next;
  }
  if (e.ino_next != kNoSlot) {
    arena_[e.ino_next].ino_prev = e.ino_prev;
  } else {
    chain.tail = e.ino_prev;
  }
  // Deliberately keep the chain record when it empties: insert/remove churn
  // on the same inode would otherwise rebuild the directory entry on every
  // cycle. Empty records are 24 bytes, bounded by the number of distinct
  // inodes ever cached, and reaped by RemoveInode (truncate/delete).
  --chain.count;
  e = Entry{};
  free_slots_.push_back(slot);
  --page_count_;
}

void PageCache::MoveToLruFront(uint32_t slot) {
  if (slot == lru_head_) {
    return;
  }
  Entry& e = arena_[slot];
  arena_[e.lru_newer].lru_older = e.lru_older;  // slot != head => newer exists
  if (e.lru_older != kNoSlot) {
    arena_[e.lru_older].lru_newer = e.lru_newer;
  } else {
    lru_tail_ = e.lru_newer;
  }
  e.lru_newer = kNoSlot;
  e.lru_older = lru_head_;
  arena_[lru_head_].lru_newer = slot;
  lru_head_ = slot;
}

std::optional<uint64_t> PageCache::Lookup(InodeNo ino, PageIdx idx) {
  uint32_t slot = FindSlot(ino, idx);
  if (slot != kNoSlot) {
    ctr_hits_->Add();
    MoveToLruFront(slot);
    return arena_[slot].page.data;
  }
  ctr_misses_->Add();
  return std::nullopt;
}

const CachedPage* PageCache::Peek(InodeNo ino, PageIdx idx) const {
  uint32_t slot = FindSlot(ino, idx);
  return slot == kNoSlot ? nullptr : &arena_[slot].page;
}

void PageCache::Insert(InodeNo ino, PageIdx idx, uint64_t data, bool dirty) {
  // Peek the slot a new entry would take, then resolve lookup + insertion
  // with a single table probe; the allocation commits only on insertion.
  uint32_t new_slot = free_slots_.empty()
                          ? static_cast<uint32_t>(arena_.size())
                          : free_slots_.back();
  uint32_t slot = page_table_.FindOrInsert(ino, idx, new_slot);
  if (slot != new_slot) {
    // Overwrite in place; only a clean->dirty transition emits an event.
    Entry& entry = arena_[slot];
    entry.page.data = data;
    MoveToLruFront(slot);
    if (dirty && !entry.page.dirty) {
      entry.page.dirty = true;
      entry.page.dirtied_at = clock_();
      ++dirty_count_;
      Emit(PageEventType::kDirtied, ino, idx, /*exists=*/true, /*dirty=*/true);
    }
    return;
  }
  CommitEntry(slot, ino, idx);
  Entry& entry = arena_[slot];
  entry.page.data = data;
  entry.page.dirty = dirty;
  entry.page.dirtied_at = dirty ? clock_() : 0;
  if (dirty) {
    ++dirty_count_;
  }
  Emit(PageEventType::kAdded, ino, idx, /*exists=*/true, dirty);
  if (dirty) {
    Emit(PageEventType::kDirtied, ino, idx, /*exists=*/true, /*dirty=*/true);
  }
  EvictIfNeeded();
}

bool PageCache::MarkDirty(InodeNo ino, PageIdx idx, uint64_t data) {
  uint32_t slot = FindSlot(ino, idx);
  if (slot == kNoSlot) {
    return false;
  }
  Entry& entry = arena_[slot];
  entry.page.data = data;
  MoveToLruFront(slot);
  if (!entry.page.dirty) {
    entry.page.dirty = true;
    entry.page.dirtied_at = clock_();
    ++dirty_count_;
    Emit(PageEventType::kDirtied, ino, idx, /*exists=*/true, /*dirty=*/true);
  }
  return true;
}

bool PageCache::MarkClean(InodeNo ino, PageIdx idx) {
  uint32_t slot = FindSlot(ino, idx);
  if (slot == kNoSlot || !arena_[slot].page.dirty) {
    return false;
  }
  arena_[slot].page.dirty = false;
  --dirty_count_;
  Emit(PageEventType::kFlushed, ino, idx, /*exists=*/true, /*dirty=*/false);
  EvictIfNeeded();  // newly clean pages may satisfy a pending overshoot
  return true;
}

bool PageCache::Remove(InodeNo ino, PageIdx idx) {
  // Erase returns the slot, fusing lookup and table removal into one probe.
  uint32_t slot = page_table_.Erase(ino, idx);
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
  auto it = inode_chains_.find(ino);
  if (it == inode_chains_.end()) {
    return;
  }
  // Collect indices first: Emit may re-enter observers that inspect us.
  std::vector<PageIdx> indices;
  indices.reserve(it->second.count);
  for (uint32_t slot = it->second.head; slot != kNoSlot;
       slot = arena_[slot].ino_next) {
    indices.push_back(arena_[slot].idx);
  }
  for (PageIdx idx : indices) {
    Remove(ino, idx);
  }
  // Reap the (now empty) chain record: the inode is going away for good.
  it = inode_chains_.find(ino);
  if (it != inode_chains_.end() && it->second.count == 0) {
    inode_chains_.erase(it);
  }
}

bool PageCache::Contains(InodeNo ino, PageIdx idx) const {
  return FindSlot(ino, idx) != kNoSlot;
}

uint64_t PageCache::CachedPagesOfInode(InodeNo ino) const {
  auto it = inode_chains_.find(ino);
  return it == inode_chains_.end() ? 0 : it->second.count;
}

void PageCache::ForEachPage(
    const std::function<void(InodeNo, PageIdx, const CachedPage&)>& fn) const {
  // Canonical order: inodes ascending, then insertion order within each
  // inode. Hash-table layout must never leak into observable iteration.
  std::vector<InodeNo> inodes;
  inodes.reserve(inode_chains_.size());
  for (const auto& [ino, chain] : inode_chains_) {
    inodes.push_back(ino);
  }
  std::sort(inodes.begin(), inodes.end());
  for (InodeNo ino : inodes) {
    ForEachPageOfInode(ino, [&](PageIdx idx, const CachedPage& page) {
      fn(ino, idx, page);
    });
  }
}

void PageCache::ForEachPageOfInode(
    InodeNo ino, const std::function<void(PageIdx, const CachedPage&)>& fn) const {
  auto it = inode_chains_.find(ino);
  if (it == inode_chains_.end()) {
    return;
  }
  for (uint32_t slot = it->second.head; slot != kNoSlot;
       slot = arena_[slot].ino_next) {
    fn(arena_[slot].idx, arena_[slot].page);
  }
}

std::vector<PageCache::DirtyPageRef> PageCache::CollectDirty(SimTime not_after,
                                                             uint64_t max) const {
  std::vector<DirtyPageRef> out;
  // Walk from the LRU tail (coldest first), as the kernel flusher does.
  for (uint32_t slot = lru_tail_; slot != kNoSlot && out.size() < max;
       slot = arena_[slot].lru_newer) {
    const Entry& e = arena_[slot];
    if (e.page.dirty && e.page.dirtied_at <= not_after) {
      out.push_back(DirtyPageRef{e.ino, e.idx, e.page.data});
    }
  }
  return out;
}

void PageCache::SetEvictionAdvisor(EvictionAdvisor advisor, size_t window) {
  advisor_ = std::move(advisor);
  advisor_window_ = window;
}

void PageCache::ClearEvictionAdvisor() { advisor_ = nullptr; }

void PageCache::AddListener(PageEventListener* listener) {
  assert(listener != nullptr);
  listeners_.push_back(listener);
}

void PageCache::RemoveListener(PageEventListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

uint64_t PageCache::IndexMemoryBytes() const {
  return arena_.capacity() * sizeof(Entry) +
         free_slots_.capacity() * sizeof(uint32_t) + page_table_.MemoryBytes() +
         inode_chains_.size() * (sizeof(InodeNo) + sizeof(InodeChain));
}

void PageCache::EvictIfNeeded() {
  if (page_count_ <= capacity_) {
    return;
  }
  // Evict clean pages from the LRU tail. Dirty pages are skipped; writeback
  // cleans them and calls back here. Victims are collected first so the walk
  // never iterates a list it is mutating.
  struct Victim {
    InodeNo ino;
    PageIdx idx;
  };
  std::vector<Victim> victims;
  uint64_t need = page_count_ - capacity_;
  if (advisor_ != nullptr) {
    // Informed replacement: within a window of the coldest pages, evict the
    // ones the advisor marks (already-processed data) before plain LRU.
    std::vector<Victim> fallback;
    size_t scanned = 0;
    for (uint32_t slot = lru_tail_;
         slot != kNoSlot && victims.size() < need &&
         scanned < std::max<size_t>(advisor_window_, need);
         slot = arena_[slot].lru_newer, ++scanned) {
      if (slot == lru_head_) {
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
    for (uint32_t slot = lru_tail_; slot != kNoSlot && victims.size() < need;
         slot = arena_[slot].lru_newer) {
      if (slot == lru_head_) {
        break;  // never evict the page that was just inserted/touched
      }
      const Entry& e = arena_[slot];
      if (!e.page.dirty) {
        victims.push_back(Victim{e.ino, e.idx});
      }
    }
  }
  for (const Victim& v : victims) {
    ctr_evictions_->Add();
    obs_->trace.Emit(clock_(), obs::TraceLayer::kCache,
                     obs::TraceKind::kPageEvicted, v.ino, v.idx);
    Remove(v.ino, v.idx);
  }
}

}  // namespace duet
