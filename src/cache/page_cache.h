// Simulated page cache.
//
// Pages are keyed by (inode, page index) as in the Linux address_space
// model, and found through the stack's one page index (PageIndex, see
// src/util/page_index.h): two array loads per lookup, with no hashing, in
// memory that follows the cached set rather than the data. Its per-inode
// record also holds the ends of the inode's insertion-order chain, 24 B per
// inode number up to the highest cached.
//
// Content is a 64-bit token rather than a 4 KiB payload: every
// correctness property the stack needs (checksum verification, backup/rsync
// equality, corruption detection) is expressed over tokens, which keeps a
// 50 GB simulated device resident in a few hundred megabytes.
//
// The cache emits the four Duet hook events (Added/Removed/Dirtied/Flushed)
// synchronously to registered listeners — the exact hook surface the paper's
// kernel patch adds to the Linux page cache (§4.1).
//
// Eviction is LRU over *clean* pages. Writes may transiently push the cache
// over capacity; the writeback component cleans pages so later evictions can
// reclaim them (mirroring dirty-ratio behaviour without blocking writers).
//
// Every page is on one global LRU list and on exactly one of two sub-lists,
// clean or dirty, which keep the global list's relative order (as the kernel
// keeps dirty data apart from the reclaimable LRU). Eviction walks the clean
// sub-list from its cold end and writeback walks the dirty one, so neither
// steps over pages of the other kind. A page that is touched moves to the
// front of both lists; a page that is cleaned (MarkClean) keeps its global
// position and is linked into the clean sub-list next to its nearest clean
// neighbour on the global list, which costs the length of the dirty run
// around it — O(1) amortised when writeback cleans oldest-first.
#ifndef SRC_CACHE_PAGE_CACHE_H_
#define SRC_CACHE_PAGE_CACHE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/cache/page_event.h"
#include "src/obs/obs.h"
#include "src/sim/event_loop.h"
#include "src/sim/time.h"
#include "src/util/page_index.h"
#include "src/util/types.h"

namespace duet {

struct CachedPage {
  uint64_t data = 0;
  bool dirty = false;
  SimTime dirtied_at = 0;
};

class PageCache {
 public:
  // `loop` supplies the virtual time for dirty timestamps and trace events,
  // and the context the cache reports into.
  PageCache(uint64_t capacity_pages, EventLoop* loop);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // ---- Lookup / mutation (called by the file-system layer) ----

  // Returns the page data if cached, touching LRU. Counts a hit or miss.
  std::optional<uint64_t> Lookup(InodeNo ino, PageIdx idx);

  // Peeks without touching LRU or hit/miss counters (used by opportunistic
  // readers that must not perturb recency, and by tests). The returned
  // pointer is valid only until the next Insert (the entry arena may grow);
  // consume it before mutating the cache.
  const CachedPage* Peek(InodeNo ino, PageIdx idx) const;

  // Inserts (or overwrites) a page. `dirty` pages are timestamped. Emits
  // kAdded for new pages and kDirtied on a clean->dirty transition. Evicts
  // clean LRU pages if over capacity.
  void Insert(InodeNo ino, PageIdx idx, uint64_t data, bool dirty);

  // Overwrites the data of a cached page and marks it dirty, emitting
  // kDirtied on the clean->dirty transition. Returns false if not cached.
  bool MarkDirty(InodeNo ino, PageIdx idx, uint64_t data);

  // Clears the dirty bit after writeback, emitting kFlushed. Returns false
  // if the page is not cached or not dirty.
  bool MarkClean(InodeNo ino, PageIdx idx);

  // Removes a page (emits kRemoved). Returns false if absent.
  bool Remove(InodeNo ino, PageIdx idx);

  // Removes every page of `ino` (truncate/delete). Emits kRemoved for each.
  void RemoveInode(InodeNo ino);

  // ---- Introspection (used by Duet and the writeback component) ----

  bool Contains(InodeNo ino, PageIdx idx) const;
  uint64_t PageCount() const { return page_count_; }
  uint64_t DirtyCount() const { return dirty_count_; }
  uint64_t capacity() const { return capacity_; }

  // Number of cached pages belonging to `ino` (defrag/rsync prioritization).
  uint64_t CachedPagesOfInode(InodeNo ino) const;

  // Iterates over every cached page (Duet's registration-time scan), in
  // canonical order: inodes ascending, pages of an inode in cache-insertion
  // order. The order is part of the determinism contract.
  void ForEachPage(const std::function<void(InodeNo, PageIdx, const CachedPage&)>& fn) const;

  // Iterates over the pages of one inode, in cache-insertion order.
  void ForEachPageOfInode(
      InodeNo ino, const std::function<void(PageIdx, const CachedPage&)>& fn) const;

  // Collects up to `max` dirty pages that were dirtied at or before
  // `not_after`, in LRU order (oldest first). Used by writeback.
  struct DirtyPageRef {
    InodeNo ino;
    PageIdx idx;
    uint64_t data;
  };
  std::vector<DirtyPageRef> CollectDirty(SimTime not_after, uint64_t max) const;

  // ---- Hook registration ----

  void AddListener(PageEventListener* listener);
  void RemoveListener(PageEventListener* listener);

  // ---- Informed replacement (the PACMan-style extension the paper's §2
  // anticipates) ----
  // The advisor returns true for pages that are good eviction victims (e.g.
  // already processed by every maintenance session). When set, eviction
  // scans up to `window` LRU-tail entries and evicts advised pages first,
  // falling back to plain LRU order.
  using EvictionAdvisor = std::function<bool(InodeNo, PageIdx)>;
  void SetEvictionAdvisor(EvictionAdvisor advisor, size_t window = 64);
  void ClearEvictionAdvisor();

 private:
  static constexpr uint32_t kNoSlot = PageIndex<>::kNoSlot;

  // Links of one intrusive slot-linked list threaded through the arena.
  struct Links {
    uint32_t newer = kNoSlot;  // toward the list head
    uint32_t older = kNoSlot;  // toward the list tail
  };
  // Ends of such a list: `head` is the newest entry, `tail` the oldest.
  struct List {
    uint32_t head = kNoSlot;
    uint32_t tail = kNoSlot;
  };

  // One cached page. Entries live in a packed arena; the page index maps
  // (inode, page index) -> arena slot. Every entry is on three intrusive
  // lists, so every cache operation is O(1) (MarkClean: O(1) amortised) with
  // no allocation on the steady path:
  //  * `lru`: the global LRU list (head = most recently used);
  //  * `sub`: the clean sub-list if `page.dirty` is false, else the dirty
  //    one. Each sub-list holds exactly the pages of its kind in global LRU
  //    order, so its tail is the coldest page of that kind;
  //  * `ino_links`: the page's inode chain, in insertion order (tail =
  //    oldest), whose ends are the inode's data in the page index.
  struct Entry {
    InodeNo ino = kInvalidInode;
    PageIdx idx = 0;
    CachedPage page;
    Links lru;
    Links sub;
    Links ino_links;
  };
  static_assert(sizeof(Entry) == 64, "an entry fills one cache line");

  // `exists`/`dirty` are the page's post-event state, forwarded to listeners
  // in the PageEvent so they never re-probe the index on the hook path.
  void Emit(PageEventType type, InodeNo ino, PageIdx idx, bool exists,
            bool dirty);
  void EvictIfNeeded();
  // Counts, traces and removes one eviction victim.
  void Evict(InodeNo ino, PageIdx idx);

  // Allocates an arena entry for a page that is not cached, fills it in,
  // links it (LRU and sub-list fronts, inode chain head) and indexes it.
  void CreateEntry(InodeNo ino, PageIdx idx, uint64_t data, bool dirty);
  // Unlinks, unindexes and recycles an entry. Does not emit.
  void DestroyEntry(uint32_t slot);
  void MoveToLruFront(uint32_t slot);
  // Clean->dirty transition of a page already at the LRU front.
  void SetDirty(uint32_t slot);
  // Links a just-cleaned page into the clean sub-list at its LRU position.
  void LinkCleanInLruOrder(uint32_t slot);
  List& SubListOf(const Entry& e) { return e.page.dirty ? dirty_ : clean_; }

  // Intrusive-list primitives over the links selected by `L`. LinkBetween
  // places `slot` between the adjacent entries `older` and `newer`, either
  // of which is kNoSlot at that end of the list.
  template <Links Entry::*L>
  void LinkBetween(List& list, uint32_t slot, uint32_t older, uint32_t newer);
  template <Links Entry::*L>
  void LinkFront(List& list, uint32_t slot) {
    LinkBetween<L>(list, slot, list.head, kNoSlot);
  }
  template <Links Entry::*L>
  void Unlink(List& list, uint32_t slot);

  uint64_t capacity_;
  EventLoop* loop_;
  std::vector<Entry> arena_;
  std::vector<uint32_t> free_slots_;
  // (inode, page index) -> arena slot; an inode's data is its chain's ends.
  PageIndex<List> index_;
  List lru_;
  List clean_;
  List dirty_;
  uint64_t page_count_ = 0;
  uint64_t dirty_count_ = 0;
  std::vector<PageEventListener*> listeners_;
  EvictionAdvisor advisor_;
  size_t advisor_window_ = 64;
  obs::ObsContext* obs_;
  // One counter per hook event type, indexed by PageEventType.
  obs::Counter* ctr_events_[4];
  obs::Counter* ctr_hits_;
  obs::Counter* ctr_misses_;
  obs::Counter* ctr_evictions_;
  // Pages removed while still dirty (truncate/delete): these never emit
  // kFlushed, so the dirtied == flushed + removed_dirty + resident-dirty
  // conservation law needs them counted separately.
  obs::Counter* ctr_removed_dirty_;
};

}  // namespace duet

#endif  // SRC_CACHE_PAGE_CACHE_H_
