#include "src/duet/duet_core.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace duet {
namespace {

uint8_t EventBit(PageEventType type) {
  switch (type) {
    case PageEventType::kAdded:
      return kDuetPageAdded;
    case PageEventType::kRemoved:
      return kDuetPageRemoved;
    case PageEventType::kDirtied:
      return kDuetPageDirtied;
    case PageEventType::kFlushed:
      return kDuetPageFlushed;
  }
  return 0;
}

// State bit affected by an event (Table 2's pairing).
uint8_t AffectedStateBit(PageEventType type) {
  switch (type) {
    case PageEventType::kAdded:
    case PageEventType::kRemoved:
      return kDuetPageExists;
    case PageEventType::kDirtied:
    case PageEventType::kFlushed:
      return kDuetPageModified;
  }
  return 0;
}

}  // namespace

DuetCore::DuetCore(FileSystem* fs, DuetConfig config)
    : fs_(fs),
      config_(config),
      obs_(&fs->loop().obs()),
      ctr_hooks_(obs_->metrics.GetCounter("duet.hooks")),
      ctr_delivered_(obs_->metrics.GetCounter("duet.events.delivered")),
      ctr_dropped_(obs_->metrics.GetCounter("duet.events.dropped")),
      ctr_fetched_(obs_->metrics.GetCounter("duet.items.fetched")),
      ctr_fetch_calls_(obs_->metrics.GetCounter("duet.fetch.calls")),
      ctr_done_set_(obs_->metrics.GetCounter("duet.done.set")),
      ctr_done_unset_(obs_->metrics.GetCounter("duet.done.unset")),
      ctr_relevance_checks_(obs_->metrics.GetCounter("duet.relevance_checks")),
      gauge_descriptors_(obs_->metrics.GetGauge("duet.desc.live")),
      gauge_peak_descriptors_(obs_->metrics.GetGauge("duet.desc.peak")) {
  assert(fs_ != nullptr);
  assert(config_.max_sessions <= kMaxSessionsHard);
  fs_->cache().AddListener(this);
  fs_->ns().AddObserver(this);
}

SimTime DuetCore::Now() const { return fs_->loop().now(); }

DuetCore::~DuetCore() {
  gauge_descriptors_->Add(-static_cast<int64_t>(live_descriptors_));
  fs_->cache().RemoveListener(this);
  fs_->ns().RemoveObserver(this);
}

void DuetCore::RebuildInterestMasks() {
  active_mask_ = 0;
  state_mask_ = 0;
  block_mask_ = 0;
  event_interest_.fill(0);
  for (SessionId sid = 0; sid < config_.max_sessions; ++sid) {
    const Session& s = sessions_[sid];
    if (!s.active) {
      continue;
    }
    uint64_t bit = 1ull << sid;
    active_mask_ |= bit;
    if (SubscribesState(s)) {
      state_mask_ |= bit;
    }
    if (s.is_block) {
      block_mask_ |= bit;
    }
    for (int t = 0; t < 4; ++t) {
      auto type = static_cast<PageEventType>(t);
      if ((s.mask & (EventBit(type) | AffectedStateBit(type))) != 0) {
        event_interest_[t] |= bit;
      }
    }
  }
}

Result<SessionId> DuetCore::AllocateSession(uint8_t mask) {
  if ((mask & (kDuetEventMask | kDuetStateMask)) == 0) {
    return Status(StatusCode::kInvalidArgument, "empty notification mask");
  }
  for (SessionId sid = 0; sid < config_.max_sessions; ++sid) {
    if (!sessions_[sid].active) {
      Session& s = sessions_[sid];
      s.done.Reset();
      s.relevant.Reset();
      s.flags.Reset();
      s.queue.clear();
      s = Session{};
      s.active = true;
      s.mask = mask;
      ++active_sessions_;
      return sid;
    }
  }
  return Status(StatusCode::kLimit, "session table full");
}

Result<SessionId> DuetCore::RegisterFileTask(std::string_view path, uint8_t mask) {
  Result<InodeNo> dir = fs_->ns().Resolve(path);
  if (!dir.ok()) {
    return dir.status();
  }
  const Inode* inode = fs_->ns().Get(*dir);
  if (inode == nullptr || !inode->is_dir()) {
    return Status(StatusCode::kInvalidArgument, "registered path is not a directory");
  }
  Result<SessionId> sid = AllocateSession(mask);
  if (!sid.ok()) {
    return sid;
  }
  Session& s = sessions_[*sid];
  s.is_block = false;
  s.registered_dir = *dir;
  uint64_t inode_bits = fs_->ns().max_ino() + 4096;
  s.done.Resize(inode_bits);
  s.relevant.Resize(inode_bits);
  RebuildInterestMasks();
  obs_->metrics.GetCounter("duet.sessions.registered")->Add();
  obs_->trace.Emit(Now(), obs::TraceLayer::kDuet,
                   obs::TraceKind::kSessionRegistered, *sid, mask, 0);
  InitialScan(*sid);
  return sid;
}

Result<SessionId> DuetCore::RegisterBlockTask(uint8_t mask) {
  Result<SessionId> sid = AllocateSession(mask);
  if (!sid.ok()) {
    return sid;
  }
  Session& s = sessions_[*sid];
  s.is_block = true;
  s.done.Resize(fs_->capacity_blocks());
  RebuildInterestMasks();
  obs_->metrics.GetCounter("duet.sessions.registered")->Add();
  obs_->trace.Emit(Now(), obs::TraceLayer::kDuet,
                   obs::TraceKind::kSessionRegistered, *sid, mask, 1);
  InitialScan(*sid);
  return sid;
}

Status DuetCore::Deregister(SessionId sid) {
  if (sid >= config_.max_sessions || !sessions_[sid].active) {
    return Status(StatusCode::kNotFound, "no such session");
  }
  Session& s = sessions_[sid];
  s.active = false;
  // Drop this session's whole flag plane in one shot (it holds every byte
  // the session ever wrote), then sweep live descriptors for ones nobody
  // needs any more.
  s.flags.Reset();
  RebuildInterestMasks();
  for (uint32_t slot = 0; slot < arena_.size(); ++slot) {
    if (arena_[slot].live) {
      MaybeFreeDescriptor(PageKey{arena_[slot].ino, arena_[slot].idx}, slot);
    }
  }
  s.queue.clear();
  s.queue_head = 0;
  s.done.Reset();
  s.relevant.Reset();
  s.pending = 0;
  --active_sessions_;
  obs_->metrics.GetCounter("duet.sessions.deregistered")->Add();
  obs_->trace.Emit(Now(), obs::TraceLayer::kDuet,
                   obs::TraceKind::kSessionDeregistered, sid);
  return Status::Ok();
}

void DuetCore::EnsureInodeCapacity(InodeNo ino) {
  for (uint32_t sid = 0; sid < config_.max_sessions; ++sid) {
    Session& s = sessions_[sid];
    if (s.active && !s.is_block && ino >= s.done.size()) {
      uint64_t bits = std::max<uint64_t>(ino + 1, s.done.size() * 2);
      s.done.Resize(bits);
      s.relevant.Resize(bits);
    }
  }
}

uint32_t DuetCore::GetOrCreateSlot(const PageKey& key, bool exists,
                                   bool modified) {
  uint32_t slot = FindSlot(key);
  if (slot != kNoSlot) {
    return slot;
  }
  return CreateSlot(key, exists, modified);
}

uint32_t DuetCore::CreateSlot(const PageKey& key, bool exists, bool modified) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  Descriptor& d = arena_[slot];
  d.ino = key.ino;
  d.idx = key.idx;
  d.live = true;
  d.cur_exists = exists;
  d.cur_modified = modified;
  page_index_.Insert(key.ino, key.idx, slot);
  ++live_descriptors_;
  gauge_descriptors_->Add(1);
  if (gauge_descriptors_->value() > gauge_peak_descriptors_->value()) {
    gauge_peak_descriptors_->Set(gauge_descriptors_->value());
  }
  return slot;
}

bool DuetCore::DescriptorNeeded(uint32_t slot, const Descriptor& d) const {
  // Keep the descriptor while the page is cached and some state session
  // exists: its reported-state snapshot is live context.
  if (d.cur_exists && state_mask_ != 0) {
    return true;
  }
  // Unfetched-but-cancelled notifications (e.g. a page added and evicted
  // between fetches) do NOT keep a descriptor alive — that is what gives
  // the paper's 2x-cache-pages bound for state sessions (§4.2). A stale
  // fetch-queue entry is skipped harmlessly later.
  uint64_t mask = active_mask_;
  while (mask != 0) {
    auto sid = static_cast<SessionId>(std::countr_zero(mask));
    mask &= mask - 1;
    const Session& sess = sessions_[sid];
    if (HasPending(sess, sess.flags.Get(slot), d)) {
      return true;
    }
  }
  return false;
}

void DuetCore::MaybeFreeDescriptor(const PageKey& key, uint32_t slot) {
  if (slot == kNoSlot) {
    return;
  }
  Descriptor& d = arena_[slot];
  if (!d.live || DescriptorNeeded(slot, d)) {
    return;
  }
  // Clear every active session's flag byte for this slot (slots recycle, so
  // a freed slot must read as 0 everywhere) and reconcile queue accounting:
  // freeing a queued descriptor leaves a stale deque entry behind, which
  // Fetch skips.
  uint64_t mask = active_mask_;
  while (mask != 0) {
    auto sid = static_cast<SessionId>(std::countr_zero(mask));
    mask &= mask - 1;
    Session& s = sessions_[sid];
    uint8_t byte = s.flags.Get(slot);
    if (byte != 0) {
      if ((byte & kQueued) != 0) {
        assert(s.pending > 0);
        --s.pending;
      }
      s.flags.Set(slot, 0);
    }
  }
  page_index_.Erase(key.ino, key.idx);
  d = Descriptor{};
  free_slots_.push_back(slot);
  --live_descriptors_;
  gauge_descriptors_->Add(-1);
}

bool DuetCore::HasPending(const Session& s, uint8_t byte,
                          const Descriptor& d) const {
  if ((byte & kPendingEventMask) != 0) {
    return true;
  }
  if ((s.mask & kDuetPageExists) != 0 &&
      ((byte & kReportedExists) != 0) != d.cur_exists) {
    return true;
  }
  if ((s.mask & kDuetPageModified) != 0 &&
      ((byte & kReportedModified) != 0) != d.cur_modified) {
    return true;
  }
  return false;
}

bool DuetCore::EnsureQueued(SessionId sid, Session& s, uint32_t slot,
                            const PageKey& key, uint8_t byte) {
  if ((byte & kQueued) != 0) {
    return true;
  }
  if (!SubscribesState(s) && s.pending >= config_.max_pending_per_session) {
    // Event-only session at its descriptor limit: drop (§4.2).
    ++s.dropped;
    ctr_dropped_->Add();
    obs_->trace.Emit(Now(), obs::TraceLayer::kDuet, obs::TraceKind::kEventDropped,
                     sid, key.ino, key.idx);
    s.flags.Set(slot, static_cast<uint8_t>(byte & ~kPendingEventMask));
    return false;
  }
  s.flags.Set(slot, static_cast<uint8_t>(byte | kQueued));
  s.queue.push_back(key);
  ++s.pending;
  return true;
}

bool DuetCore::IsRelevant(Session& s, InodeNo ino) {
  if (s.relevant.Test(ino)) {
    return true;
  }
  ctr_relevance_checks_->Add();
  if (fs_->ns().IsUnder(ino, s.registered_dir)) {
    s.relevant.Set(ino);
    return true;
  }
  // Irrelevant: mark done so no backward traversal happens again (§4.1).
  s.done.Set(ino);
  return false;
}

void DuetCore::OnPageEvent(const PageEvent& event) {
  ctr_hooks_->Add();
  PageKey key{event.ino, event.idx};
  uint32_t slot = FindSlot(key);
  // Refresh the merged descriptor's current-state view from the hook's
  // post-event snapshot (no cache probe needed).
  if (slot != kNoSlot) {
    arena_[slot].cur_exists = event.exists;
    arena_[slot].cur_modified = event.dirty;
  }
  uint64_t interested = event_interest_[static_cast<int>(event.type)];
  if (interested == 0) {
    return;
  }
  // Block sessions share one FIBMAP translation of the page.
  BlockNo block = (interested & block_mask_) != 0
                      ? fs_->BlockOf(event.ino, event.idx)
                      : kInvalidBlock;
  uint64_t mask = interested;
  while (mask != 0) {
    auto sid = static_cast<SessionId>(std::countr_zero(mask));
    mask &= mask - 1;
    Session& s = sessions_[sid];
    bool done;
    if (s.is_block) {
      if (block == kInvalidBlock) {
        continue;
      }
      done = s.done.Test(block);
    } else {
      if (event.ino >= s.done.size()) {
        EnsureInodeCapacity(event.ino);
      }
      done = s.done.Test(event.ino) || !IsRelevant(s, event.ino);
    }
    if (done) {
      if (slot != kNoSlot && SubscribesState(s)) {
        AbsorbSkippedEvent(s, slot);
      }
      continue;
    }
    ApplyEvent(sid, s, key, slot, event.type, event.exists, event.dirty);
  }
  MaybeFreeDescriptor(key, slot);
}

void DuetCore::AbsorbSkippedEvent(Session& s, uint32_t slot) {
  uint8_t byte = s.flags.Get(slot);
  if ((byte & (kPendingEventMask | kQueued)) != 0) {
    return;  // the next fetch reports against the older snapshot
  }
  uint8_t reported = ReportedState(arena_[slot]);
  if (byte != reported) {
    s.flags.Set(slot, reported);
  }
}

void DuetCore::ApplyEvent(SessionId sid, Session& s, const PageKey& key,
                          uint32_t& slot, PageEventType type, bool exists,
                          bool modified) {
  if (slot == kNoSlot) {
    // OnPageEvent already probed the page index and missed; create without
    // re-probing. (Nothing between that probe and here mutates the index.)
    slot = CreateSlot(key, exists, modified);
  }
  ctr_delivered_->Add();
  obs_->trace.Emit(Now(), obs::TraceLayer::kDuet, obs::TraceKind::kEventDelivered,
                   sid, key.ino, key.idx);
  uint8_t byte = s.flags.Get(slot);
  uint8_t event_bit = static_cast<uint8_t>(s.mask & EventBit(type));
  if (event_bit != 0 && (byte & event_bit) != event_bit) {
    byte = static_cast<uint8_t>(byte | event_bit);
    s.flags.Set(slot, byte);
  }
  if (HasPending(s, byte, arena_[slot])) {
    EnsureQueued(sid, s, slot, key, byte);
  }
}

void DuetCore::InitialScan(SessionId sid) {
  Session& s = sessions_[sid];
  fs_->cache().ForEachPage([&](InodeNo ino, PageIdx idx, const CachedPage& page) {
    if (s.is_block) {
      if (fs_->BlockOf(ino, idx) == kInvalidBlock) {
        return;
      }
    } else {
      if (ino >= s.done.size()) {
        EnsureInodeCapacity(ino);
      }
      if (s.done.Test(ino) || !IsRelevant(s, ino)) {
        return;
      }
    }
    PageKey key{ino, idx};
    uint32_t slot = GetOrCreateSlot(key, /*exists=*/true, page.dirty);
    ctr_delivered_->Add();
    // The scan marks the page present (and possibly dirty), §4.1.
    uint8_t byte = s.flags.Get(slot);
    if ((s.mask & kDuetPageAdded) != 0) {
      byte |= kDuetPageAdded;
    }
    if (page.dirty && (s.mask & kDuetPageDirtied) != 0) {
      byte |= kDuetPageDirtied;
    }
    s.flags.Set(slot, byte);
    if (HasPending(s, byte, arena_[slot])) {
      EnsureQueued(sid, s, slot, key, byte);
    } else {
      MaybeFreeDescriptor(key, slot);
    }
  });
}

Result<std::vector<DuetItem>> DuetCore::Fetch(SessionId sid, size_t max_items) {
  if (sid >= config_.max_sessions || !sessions_[sid].active) {
    return Status(StatusCode::kNotFound, "no such session");
  }
  Session& s = sessions_[sid];
  ctr_fetch_calls_->Add();
  std::vector<DuetItem> items;
  items.reserve(std::min<uint64_t>(max_items, s.queue.size() - s.queue_head));
  while (items.size() < max_items && s.queue_head < s.queue.size()) {
    PageKey key = s.queue[s.queue_head++];
    uint32_t slot = FindSlot(key);
    if (slot == kNoSlot) {
      continue;  // descriptor freed since it was queued
    }
    Descriptor& d = arena_[slot];
    uint8_t byte = s.flags.Get(slot);
    if ((byte & kQueued) == 0) {
      continue;  // stale queue entry
    }
    assert(s.pending > 0);
    --s.pending;

    uint8_t out = byte & kPendingEventMask;
    if ((s.mask & kDuetPageExists) != 0 &&
        ((byte & kReportedExists) != 0) != d.cur_exists) {
      out |= d.cur_exists ? kDuetPageExists : kDuetPageRemoved;
    }
    if ((s.mask & kDuetPageModified) != 0 &&
        ((byte & kReportedModified) != 0) != d.cur_modified) {
      out |= d.cur_modified ? kDuetPageModified : kDuetPageFlushed;
    }

    // Mark up-to-date: clear queued + pending events, snapshot the reported
    // state.
    s.flags.Set(slot, ReportedState(d));

    if (out == 0) {
      // Notifications cancelled each other (e.g. added then removed).
      MaybeFreeDescriptor(key, slot);
      continue;
    }
    DuetItem item;
    item.flags = out;
    if (s.is_block) {
      BlockNo block = fs_->BlockOf(key.ino, key.idx);
      if (block == kInvalidBlock) {
        MaybeFreeDescriptor(key, slot);
        continue;  // page no longer mapped (file deleted/truncated)
      }
      item.id = block;
      item.offset = 0;
    } else {
      item.id = key.ino;
      item.offset = key.idx * kPageSize;
    }
    items.push_back(item);
    ctr_fetched_->Add();
    obs_->trace.Emit(Now(), obs::TraceLayer::kDuet, obs::TraceKind::kItemFetched,
                     sid, item.id, item.flags);
    MaybeFreeDescriptor(key, slot);
  }
  if (s.queue_head == s.queue.size()) {
    // Fully drained: reclaim the consumed prefix so the vector's footprint
    // tracks the backlog, not the session's cumulative event count.
    s.queue.clear();
    s.queue_head = 0;
  }
  return items;
}

Status DuetCore::SetDone(SessionId sid, uint64_t first, uint64_t count) {
  if (sid >= config_.max_sessions || !sessions_[sid].active) {
    return Status(StatusCode::kNotFound, "no such session");
  }
  Session& s = sessions_[sid];
  if (count == 0) {
    return Status::Ok();
  }
  const uint64_t end = first + count;
  if (end > s.done.size()) {
    if (s.is_block) {
      return Status(StatusCode::kInvalidArgument, "block out of range");
    }
    EnsureInodeCapacity(end - 1);
  }
  s.done.SetRange(first, end);
  ctr_done_set_->Add(count);
  obs_->trace.Emit(Now(), obs::TraceLayer::kDuet, obs::TraceKind::kDoneSet, sid,
                   first, count);

  // Mark existing descriptors up-to-date so completed items generate no
  // further notifications (§4.1).
  auto clear_page = [&](const PageKey& key) {
    uint32_t slot = FindSlot(key);
    if (slot == kNoSlot) {
      return;
    }
    uint8_t byte = s.flags.Get(slot);
    s.flags.Set(slot, ReportedState(arena_[slot]));
    if ((byte & kQueued) != 0) {
      assert(s.pending > 0);
      --s.pending;
    }
    MaybeFreeDescriptor(key, slot);
  };

  if (s.is_block) {
    // A block keeps its reverse-map entry after its page moves (a COW under
    // a snapshot): clear the page only while it still lives in the block.
    for (BlockNo block = first; block < end; ++block) {
      Result<FileSystem::BlockOwner> owner = fs_->Rmap(block);
      if (owner.ok() && fs_->BlockOf(owner->ino, owner->idx) == block) {
        clear_page(PageKey{owner->ino, owner->idx});
      }
    }
    return Status::Ok();
  }
  // Collect first: clear_page can free descriptors, which unindexes them.
  std::vector<PageKey> pages;
  for (InodeNo ino = first; ino < end; ++ino) {
    page_index_.ForEachOfInode(ino, [&](PageIdx idx, uint32_t) {
      pages.push_back(PageKey{ino, idx});
    });
  }
  for (const PageKey& key : pages) {
    clear_page(key);
  }
  return Status::Ok();
}

Status DuetCore::UnsetDone(SessionId sid, uint64_t item_id) {
  if (sid >= config_.max_sessions || !sessions_[sid].active) {
    return Status(StatusCode::kNotFound, "no such session");
  }
  Session& s = sessions_[sid];
  if (item_id >= s.done.size()) {
    return Status(StatusCode::kInvalidArgument, "item out of range");
  }
  s.done.Clear(item_id);
  ctr_done_unset_->Add();
  obs_->trace.Emit(Now(), obs::TraceLayer::kDuet, obs::TraceKind::kDoneUnset, sid,
                   item_id);
  return Status::Ok();
}

Result<std::string> DuetCore::GetPath(SessionId sid, InodeNo ino) const {
  if (sid >= config_.max_sessions || !sessions_[sid].active) {
    return Status(StatusCode::kNotFound, "no such session");
  }
  const Session& s = sessions_[sid];
  if (s.is_block) {
    return Status(StatusCode::kInvalidArgument, "block tasks have no paths");
  }
  if (!fs_->ns().Exists(ino) || !fs_->ns().IsUnder(ino, s.registered_dir)) {
    return Status(StatusCode::kNotFound, "not under registered directory");
  }
  // The "truth" for our hints (§3.2): fail when the file has no cached
  // pages left, so tasks can back out of stale opportunistic work.
  if (fs_->cache().CachedPagesOfInode(ino) == 0) {
    return Status(StatusCode::kNotFound, "no cached pages");
  }
  Result<std::string> full = fs_->ns().PathOf(ino);
  if (!full.ok()) {
    return full;
  }
  Result<std::string> base = fs_->ns().PathOf(s.registered_dir);
  if (!base.ok()) {
    return base;
  }
  if (*base == "/") {
    return full;
  }
  std::string rel = full->substr(base->size());
  return rel.empty() ? std::string("/") : rel;
}

void DuetCore::FileMovedIn(SessionId sid, Session& s, InodeNo ino) {
  EnsureInodeCapacity(ino);
  s.done.Clear(ino);
  s.relevant.Set(ino);
  // Initialize descriptors for all cached pages, as the registration scan
  // does (§4.1).
  fs_->cache().ForEachPageOfInode(ino, [&](PageIdx idx, const CachedPage& page) {
    PageKey key{ino, idx};
    uint32_t slot = GetOrCreateSlot(key, /*exists=*/true, page.dirty);
    ctr_delivered_->Add();
    uint8_t byte = s.flags.Get(slot);
    if ((s.mask & kDuetPageAdded) != 0) {
      byte |= kDuetPageAdded;
    }
    if (page.dirty && (s.mask & kDuetPageDirtied) != 0) {
      byte |= kDuetPageDirtied;
    }
    // Force a fresh state report.
    byte &= static_cast<uint8_t>(~(kReportedExists | kReportedModified));
    s.flags.Set(slot, byte);
    if (HasPending(s, byte, arena_[slot])) {
      EnsureQueued(sid, s, slot, key, byte);
    }
  });
}

void DuetCore::FileMovedOut(SessionId sid, Session& s, InodeNo ino) {
  // Set the Removed bit and clear the Exists view for all existing pages,
  // then mark the file done (§4.1).
  fs_->cache().ForEachPageOfInode(ino, [&](PageIdx idx, const CachedPage& page) {
    PageKey key{ino, idx};
    uint32_t slot = GetOrCreateSlot(key, /*exists=*/true, page.dirty);
    ctr_delivered_->Add();
    if ((s.mask & (kDuetPageRemoved | kDuetPageExists)) != 0) {
      uint8_t byte = s.flags.Get(slot);
      byte |= kDuetPageRemoved;
      // Pretend the page's existence was already re-reported so the state
      // machinery does not also emit a (contradictory) Exists item.
      if (arena_[slot].cur_exists) {
        byte |= kReportedExists;
      }
      s.flags.Set(slot, byte);
      EnsureQueued(sid, s, slot, key, byte);
    }
  });
  EnsureInodeCapacity(ino);
  s.done.Set(ino);
  s.relevant.Clear(ino);
}

void DuetCore::OnRename(InodeNo ino, InodeNo old_parent, InodeNo new_parent,
                        bool is_dir) {
  for (SessionId sid = 0; sid < config_.max_sessions; ++sid) {
    Session& s = sessions_[sid];
    if (!s.active || s.is_block) {
      continue;
    }
    bool old_in = fs_->ns().IsUnder(old_parent, s.registered_dir);
    bool new_in = fs_->ns().IsUnder(new_parent, s.registered_dir);
    if (!old_in && !new_in) {
      continue;
    }
    if (is_dir) {
      // Directory rename: reset relevant/done for every file except those
      // fully processed (both bits set), §4.1. Files will have their
      // relevance re-checked lazily.
      std::vector<uint64_t> to_reset;
      for (std::optional<uint64_t> i = s.relevant.FindNextSet(0); i.has_value();
           i = s.relevant.FindNextSet(*i + 1)) {
        if (!s.done.Test(*i)) {
          to_reset.push_back(*i);
        }
      }
      for (std::optional<uint64_t> i = s.done.FindNextSet(0); i.has_value();
           i = s.done.FindNextSet(*i + 1)) {
        if (!s.relevant.Test(*i)) {
          to_reset.push_back(*i);
        }
      }
      for (uint64_t i : to_reset) {
        s.relevant.Clear(i);
        s.done.Clear(i);
      }
    } else {
      if (!old_in && new_in) {
        FileMovedIn(sid, s, ino);
      } else if (old_in && !new_in) {
        FileMovedOut(sid, s, ino);
      }
      // Moves within the registered directory change only the path, which
      // is resolved lazily via GetPath.
    }
  }
}

void DuetCore::OnUnlink(InodeNo /*ino*/) {
  // Page-cache Removed events for the file's pages fire separately through
  // the cache hooks; no extra bookkeeping is needed here.
}

void DuetCore::OnCreate(InodeNo ino) { EnsureInodeCapacity(ino); }

uint64_t DuetCore::DescriptorMemoryBytes() const {
  return arena_.capacity() * sizeof(Descriptor) +
         free_slots_.capacity() * sizeof(uint32_t) + page_index_.MemoryBytes();
}

uint64_t DuetCore::SessionBitmapBytes(SessionId sid) const {
  if (sid >= config_.max_sessions || !sessions_[sid].active) {
    return 0;
  }
  const Session& s = sessions_[sid];
  return s.done.MemoryBytes() + s.relevant.MemoryBytes() + s.flags.MemoryBytes();
}

uint64_t DuetCore::DoneCount(SessionId sid) const {
  if (sid >= config_.max_sessions || !sessions_[sid].active) {
    return 0;
  }
  return sessions_[sid].done.Count();
}

bool DuetCore::ProcessedByAllSessions(InodeNo ino, PageIdx idx) const {
  bool any_tracking = false;
  uint64_t mask = active_mask_;
  while (mask != 0) {
    auto sid = static_cast<SessionId>(std::countr_zero(mask));
    mask &= mask - 1;
    const Session& s = sessions_[sid];
    if (s.done.Count() == 0) {
      continue;  // sessions that do not track completion get no vote
    }
    any_tracking = true;
    if (s.is_block) {
      BlockNo block = fs_->BlockOf(ino, idx);
      if (block == kInvalidBlock || !s.done.Test(block)) {
        return false;
      }
    } else {
      if (ino >= s.done.size() || !s.done.Test(ino)) {
        return false;
      }
    }
  }
  return any_tracking;
}

uint64_t DuetCore::PendingCount(SessionId sid) const {
  if (sid >= config_.max_sessions || !sessions_[sid].active) {
    return 0;
  }
  return sessions_[sid].pending;
}

}  // namespace duet
