// DuetCore: the framework of the paper (§4) — the userspace equivalent of
// the Duet kernel module plus its page-cache hooks.
//
// DuetCore listens to the page cache's Added/Removed/Dirtied/Flushed hooks
// and to VFS rename/unlink notifications. It maintains:
//  * a session table (up to `max_sessions` concurrent sessions, §4.2);
//  * one *merged* item descriptor per page with pending notifications, in a
//    packed descriptor arena addressed through the stack's per-inode page
//    index (PageIndex, the page cache's index too); the arena slot doubles
//    as the page's *global page number*, the key the paper uses for its
//    per-session structures. The paper keeps descriptors in one global hash
//    table (§4.2); a per-inode index is a deliberate departure: a lookup is
//    two array loads, and a file's descriptors are found without a second
//    per-inode structure;
//  * per-session notification flag bytes (the four Table 2 event bits plus
//    reported-state/queued bookkeeping) in dynamically allocated 4 KiB
//    chunks keyed by global page number (ChunkedByteMap — the byte-wide
//    sibling of the paper's chunked bitmaps);
//  * per-session done / relevant bitmaps backed by dynamically allocated
//    chunks (RangeBitmap, §4.2's memory behaviour; a dense chunk directory
//    stands in for the paper's red-black tree).
//
// Hook dispatch is the hottest path in the stack: every page-cache event
// fans out to the interested sessions. Three things keep it O(1) per
// interested session with no allocation on the steady path:
//  * per-event-type session interest masks — a hook visits exactly the
//    sessions subscribed to that event (bit-scan, not a table walk);
//  * the page index — two array loads find a page's descriptor, with no
//    hashing;
//  * the descriptor arena + freelist — descriptors recycle without heap
//    traffic, and done-marking a file walks only that file's slot array in
//    the index.
//
// Item identity: descriptors are keyed by (inode, page index). Block-task
// items are translated to block numbers through the file system's FIBMAP
// (Bmap) at event and fetch time, exactly the mechanism §4.2 describes for
// informing block tasks of file-level accesses.
//
// Memory bound: a descriptor stays allocated while its page is cached and a
// state-subscribed session exists, or while some session has something to
// report for the page: pending event bits, or a reported-state snapshot that
// differs from the page's state. Once a page leaves the cache, only the
// report of its departure keeps the descriptor, and the next fetch settles
// it. That gives the paper's 2 × (max pages in cache) bound for state
// sessions (§4.2, §6.4). A session whose item is done skips the page's
// events and so would never fetch that report. Instead, when the session
// has nothing pending or queued for the page, the skipped event moves its
// snapshot to the page's new state. A done item therefore pins no
// descriptor once its page is gone. The `duet.desc.live` and
// `duet.desc.peak` gauges expose the count. Event-only sessions are subject
// to a per-session descriptor limit; beyond it, new events are dropped
// (§4.2).
#ifndef SRC_DUET_DUET_CORE_H_
#define SRC_DUET_DUET_CORE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/page_event.h"
#include "src/duet/duet_types.h"
#include "src/fs/file_system.h"
#include "src/fs/vfs_observer.h"
#include "src/obs/obs.h"
#include "src/util/chunked_bytes.h"
#include "src/util/page_index.h"
#include "src/util/range_bitmap.h"
#include "src/util/status.h"

namespace duet {

struct DuetConfig {
  uint32_t max_sessions = 16;
  // Per-session cap on descriptors with pending notifications; beyond this,
  // events are dropped for event-only sessions (state sessions are bounded
  // by cache size and never drop).
  uint64_t max_pending_per_session = 1u << 20;
};

class DuetCore : public PageEventListener, public VfsObserver {
 public:
  // Attaches to `fs`'s page cache and namespace. Detaches on destruction.
  explicit DuetCore(FileSystem* fs, DuetConfig config = DuetConfig());
  ~DuetCore() override;

  DuetCore(const DuetCore&) = delete;
  DuetCore& operator=(const DuetCore&) = delete;

  // ---- The Duet API (paper Table 1) ----

  // Registers a file task watching `path` (a directory). Items are inode
  // numbers + offsets for files under the directory.
  Result<SessionId> RegisterFileTask(std::string_view path, uint8_t mask);

  // Registers a block task watching the whole device. Items are block
  // numbers.
  Result<SessionId> RegisterBlockTask(uint8_t mask);

  Status Deregister(SessionId sid);

  // Returns up to `max_items` pending notifications. Items whose
  // notifications cancelled out (§3.2) are silently skipped.
  Result<std::vector<DuetItem>> Fetch(SessionId sid, size_t max_items);

  // Work tracking (done bitmap): item_id is a block number for block tasks
  // and an inode number for file tasks. CheckDone is inline: the scrubber asks
  // it for every item it fetches and every block its sweep passes.
  bool CheckDone(SessionId sid, uint64_t item_id) const {
    if (sid >= config_.max_sessions || !sessions_[sid].active) {
      return false;
    }
    const Session& s = sessions_[sid];
    return item_id < s.done.size() && s.done.Test(item_id);
  }
  // Marks `count` items from `first` done: for a block task a run of
  // blocks, with one bitmap range, one kDoneSet event and one pass that
  // clears each block's page (a single item is the count-1 case; an empty
  // run does nothing).
  Status SetDone(SessionId sid, uint64_t first, uint64_t count = 1);
  Status UnsetDone(SessionId sid, uint64_t item_id);

  // Translates an inode to a path relative to the session's registered
  // directory. Fails when the file has no pages left in the cache — the
  // "truth" check that lets tasks back out of stale hints (§3.2) — or when
  // the file moved out of the registered directory.
  Result<std::string> GetPath(SessionId sid, InodeNo ino) const;

  // ---- Hooks (wired automatically) ----
  void OnPageEvent(const PageEvent& event) override;
  void OnRename(InodeNo ino, InodeNo old_parent, InodeNo new_parent,
                bool is_dir) override;
  void OnUnlink(InodeNo ino) override;
  void OnCreate(InodeNo ino) override;

  // ---- Introspection / accounting (§6.4 experiments) ----
  uint64_t descriptor_count() const { return live_descriptors_; }
  // sizeof-accurate footprint of the descriptor store: the packed arena
  // (capacity, since freelist slots stay resident), its freelist, and the
  // page index. Per-session flag chunks and done/relevant bitmaps are
  // reported by SessionBitmapBytes.
  uint64_t DescriptorMemoryBytes() const;
  // Heap footprint of one session's done+relevant bitmaps and its
  // notification flag chunks.
  uint64_t SessionBitmapBytes(SessionId sid) const;
  uint32_t active_sessions() const { return active_sessions_; }
  uint64_t PendingCount(SessionId sid) const;
  // Number of items currently marked done for the session (block tasks:
  // blocks; file tasks: inodes, including irrelevance markings).
  uint64_t DoneCount(SessionId sid) const;

  // Informed cache replacement (the PACMan-style extension §2 anticipates):
  // true when every active session that tracks completion has marked this
  // page's item done — its cache residency no longer helps maintenance.
  // Suitable as a PageCache::EvictionAdvisor:
  //   cache.SetEvictionAdvisor([&duet](InodeNo i, PageIdx p) {
  //     return duet.ProcessedByAllSessions(i, p);
  //   });
  bool ProcessedByAllSessions(InodeNo ino, PageIdx idx) const;

 private:
  static constexpr uint32_t kMaxSessionsHard = 64;
  static constexpr uint32_t kNoSlot = PageIndex<>::kNoSlot;

  // Per-session per-page flag byte layout (stored in ChunkedByteMap).
  static constexpr uint8_t kPendingEventMask = 0x0f;  // bits 0-3: Table 2 events
  static constexpr uint8_t kReportedExists = 1u << 4;
  static constexpr uint8_t kReportedModified = 1u << 5;
  static constexpr uint8_t kQueued = 1u << 6;  // on the session's fetch queue

  struct PageKey {
    InodeNo ino;
    PageIdx idx;
    bool operator==(const PageKey&) const = default;
  };

  // Merged item descriptor (§4.2): one per page for all sessions, 24 bytes
  // (the paper estimates 32). Per-session flag bytes live in the sessions'
  // chunked flag maps, keyed by this descriptor's arena slot.
  struct Descriptor {
    InodeNo ino = kInvalidInode;
    PageIdx idx = 0;
    bool cur_exists = false;
    bool cur_modified = false;
    bool live = false;  // false: slot is on the freelist
  };
  static_assert(sizeof(Descriptor) == 24);

  struct Session {
    bool active = false;
    bool is_block = false;
    uint8_t mask = 0;
    InodeNo registered_dir = kInvalidInode;
    RangeBitmap done;
    RangeBitmap relevant;  // file tasks only
    ChunkedByteMap flags;  // per-page flag byte, keyed by descriptor slot
    // Pages with pending notifications, FIFO. A vector with a consumed-prefix
    // cursor beats a deque here: pushes are a bump store, Fetch drains are a
    // linear walk, and full drains (the common case) reset to empty. The
    // consumed prefix is compacted when it outgrows the live tail.
    std::vector<PageKey> queue;
    size_t queue_head = 0;  // index of the first unconsumed queue entry
    uint64_t pending = 0;
    uint64_t dropped = 0;
  };

  bool SubscribesState(const Session& s) const { return (s.mask & kDuetStateMask) != 0; }
  // The flag byte of a session that is up to date with `d`: the page's
  // current state as the reported-state snapshot, nothing pending.
  static uint8_t ReportedState(const Descriptor& d) {
    return static_cast<uint8_t>((d.cur_exists ? kReportedExists : 0) |
                                (d.cur_modified ? kReportedModified : 0));
  }

  Result<SessionId> AllocateSession(uint8_t mask);
  // Scans the page cache at registration time so existing pages generate
  // notifications immediately (§4.1).
  void InitialScan(SessionId sid);

  // Relevance for file tasks: lazily resolved on the first event for an
  // inode; irrelevant inodes are marked done so they are never re-checked.
  bool IsRelevant(Session& s, InodeNo ino);

  // Applies one page event to one session's flag byte. `slot` is the page's
  // descriptor slot, created on demand (kNoSlot on entry = not yet looked
  // up/created); `exists`/`modified` is the page's post-event state from the
  // hook, used when the descriptor must be created.
  void ApplyEvent(SessionId sid, Session& s, const PageKey& key, uint32_t& slot,
                  PageEventType type, bool exists, bool modified);
  // A state session skipped an event because the page's item is done: with
  // nothing pending or queued for the page, its snapshot takes the
  // descriptor's current state, so the skipped change does not keep the
  // descriptor alive.
  void AbsorbSkippedEvent(Session& s, uint32_t slot);
  // Marks the page pending for `sid` and enqueues it, honouring the
  // event-only drop limit. `byte` is the session's current flag byte for
  // `slot` (the hot path already holds it; passing it avoids a re-read).
  // Returns false if the event had to be dropped.
  bool EnsureQueued(SessionId sid, Session& s, uint32_t slot, const PageKey& key,
                    uint8_t byte);
  // True if the session has anything to report for a page whose flag byte
  // is `byte` and whose descriptor is `d`.
  bool HasPending(const Session& s, uint8_t byte, const Descriptor& d) const;
  // Frees the descriptor if no session needs it any more.
  void MaybeFreeDescriptor(const PageKey& key, uint32_t slot);
  bool DescriptorNeeded(uint32_t slot, const Descriptor& d) const;

  // Returns the page's descriptor slot, allocating and indexing one if
  // absent. `exists`/`modified` seed a newly created descriptor's
  // current-state view; callers always know the page state (from the hook
  // event or a cache scan), so creation never probes the cache.
  uint32_t GetOrCreateSlot(const PageKey& key, bool exists, bool modified);
  // Allocates + indexes a descriptor for a key known to be absent from the
  // page index (callers that just probed and missed skip the re-probe).
  uint32_t CreateSlot(const PageKey& key, bool exists, bool modified);
  uint32_t FindSlot(const PageKey& key) const {
    return page_index_.Find(key.ino, key.idx);
  }
  void EnsureInodeCapacity(InodeNo ino);

  // Handles a file moving into / out of a session's registered directory.
  void FileMovedIn(SessionId sid, Session& s, InodeNo ino);
  void FileMovedOut(SessionId sid, Session& s, InodeNo ino);

  // Recomputes the per-event-type interest masks from the active sessions.
  void RebuildInterestMasks();

  SimTime Now() const;

  FileSystem* fs_;
  DuetConfig config_;
  obs::ObsContext* obs_;
  obs::Counter* ctr_hooks_;
  obs::Counter* ctr_delivered_;
  obs::Counter* ctr_dropped_;
  obs::Counter* ctr_fetched_;
  obs::Counter* ctr_fetch_calls_;
  obs::Counter* ctr_done_set_;
  obs::Counter* ctr_done_unset_;
  obs::Counter* ctr_relevance_checks_;  // backward path traversals
  // Live descriptors of every DuetCore in the context, and their peak. The
  // names fit a short string, so registering them allocates no key.
  obs::Gauge* gauge_descriptors_;
  obs::Gauge* gauge_peak_descriptors_;
  std::array<Session, kMaxSessionsHard> sessions_;
  uint32_t active_sessions_ = 0;
  // Bit s set: session s is active / is active and interested in event type
  // t (its mask covers the event bit or the state bit the event affects).
  uint64_t active_mask_ = 0;
  uint64_t state_mask_ = 0;  // active sessions subscribed to state bits
  uint64_t block_mask_ = 0;  // active block sessions
  std::array<uint64_t, 4> event_interest_{};  // indexed by PageEventType

  // Descriptor store: page index -> packed arena + freelist. The arena slot
  // is the page's global page number for per-session structures.
  PageIndex<> page_index_;
  std::vector<Descriptor> arena_;
  std::vector<uint32_t> free_slots_;
  uint64_t live_descriptors_ = 0;
};

}  // namespace duet

#endif  // SRC_DUET_DUET_CORE_H_
