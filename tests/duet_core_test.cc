#include "src/duet/duet_core.h"

#include <gtest/gtest.h>

#include "src/cowfs/cowfs.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

class DuetCoreTest : public ::testing::Test {
 protected:
  DuetCoreTest()
      : rig_(100'000),
        fs_(&rig_.loop, &rig_.device, /*cache_pages=*/256),
        duet_(&fs_) {}

  InodeNo MakeFile(const char* path, uint64_t pages) {
    return *fs_.PopulateFile(path, pages * kPageSize);
  }

  void ReadSync(InodeNo ino, ByteOff off, uint64_t len) {
    fs_.Read(ino, off, len, IoClass::kBestEffort, nullptr);
    rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
  }

  void WriteSync(InodeNo ino, ByteOff off, uint64_t len) {
    fs_.Write(ino, off, len, IoClass::kBestEffort, nullptr);
    rig_.loop.RunUntil(rig_.loop.now() + Millis(500));
  }

  std::vector<DuetItem> FetchAll(SessionId sid) {
    std::vector<DuetItem> all;
    while (true) {
      Result<std::vector<DuetItem>> batch = duet_.Fetch(sid, 64);
      EXPECT_TRUE(batch.ok());
      if (!batch.ok() || batch->empty()) {
        return all;
      }
      all.insert(all.end(), batch->begin(), batch->end());
    }
  }

  // Declared first: the whole stack reports into this test's own context.
  obs::ObsContext ctx_;
  obs::ObsScope scope_{&ctx_};
  SimRig rig_;
  CowFs fs_;
  DuetCore duet_;
};

TEST_F(DuetCoreTest, RegisterRequiresMask) {
  EXPECT_FALSE(duet_.RegisterBlockTask(0).ok());
}

TEST_F(DuetCoreTest, RegisterFileTaskRequiresDirectory) {
  InodeNo f = MakeFile("/f", 1);
  (void)f;
  EXPECT_FALSE(duet_.RegisterFileTask("/f", kDuetPageExists).ok());
  EXPECT_FALSE(duet_.RegisterFileTask("/nope", kDuetPageExists).ok());
  EXPECT_TRUE(duet_.RegisterFileTask("/", kDuetPageExists).ok());
}

TEST_F(DuetCoreTest, SessionLimitEnforced) {
  DuetConfig config;
  config.max_sessions = 2;
  DuetCore small(&fs_, config);
  ASSERT_TRUE(small.RegisterBlockTask(kDuetPageAdded).ok());
  ASSERT_TRUE(small.RegisterBlockTask(kDuetPageAdded).ok());
  EXPECT_EQ(small.RegisterBlockTask(kDuetPageAdded).status().code(), StatusCode::kLimit);
  EXPECT_EQ(small.active_sessions(), 2u);
}

TEST_F(DuetCoreTest, DeregisterFreesSlotAndState) {
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageAdded);
  InodeNo ino = MakeFile("/f", 4);
  ReadSync(ino, 0, 4 * kPageSize);
  EXPECT_GT(duet_.PendingCount(sid), 0u);
  ASSERT_TRUE(duet_.Deregister(sid).ok());
  EXPECT_FALSE(duet_.Fetch(sid, 10).ok());
  EXPECT_EQ(duet_.descriptor_count(), 0u);
  EXPECT_TRUE(duet_.RegisterBlockTask(kDuetPageAdded).ok());  // slot reusable
}

TEST_F(DuetCoreTest, BlockTaskSeesAddedEventsAsBlockNumbers) {
  InodeNo ino = MakeFile("/f", 4);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageAdded);
  ReadSync(ino, 0, 4 * kPageSize);
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 4u);
  for (const DuetItem& item : items) {
    EXPECT_TRUE(item.has(kDuetPageAdded));
    Result<FileSystem::BlockOwner> owner = fs_.Rmap(item.id);
    ASSERT_TRUE(owner.ok());
    EXPECT_EQ(owner->ino, ino);
  }
}

TEST_F(DuetCoreTest, FileTaskSeesInodeAndOffset) {
  ASSERT_TRUE(fs_.Mkdir("/watched").ok());
  InodeNo ino = MakeFile("/watched/f", 3);
  SessionId sid = *duet_.RegisterFileTask("/watched", kDuetPageExists);
  ReadSync(ino, kPageSize, kPageSize);  // page 1 only
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].id, ino);
  EXPECT_EQ(items[0].offset, kPageSize);
  EXPECT_TRUE(items[0].has(kDuetPageExists));
}

TEST_F(DuetCoreTest, FileTaskIgnoresFilesOutsideRegisteredDir) {
  ASSERT_TRUE(fs_.Mkdir("/watched").ok());
  InodeNo inside = MakeFile("/watched/in", 2);
  InodeNo outside = MakeFile("/out", 2);
  SessionId sid = *duet_.RegisterFileTask("/watched", kDuetPageExists);
  ReadSync(inside, 0, 2 * kPageSize);
  ReadSync(outside, 0, 2 * kPageSize);
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 2u);
  for (const DuetItem& item : items) {
    EXPECT_EQ(item.id, inside);
  }
  // Irrelevant files are marked done so the path walk happens only once.
  uint64_t checks = ctx_.metrics.CounterValue("duet.relevance_checks");
  EXPECT_GT(checks, 0u);
  ReadSync(outside, 0, 2 * kPageSize);
  EXPECT_EQ(ctx_.metrics.CounterValue("duet.relevance_checks"), checks);
}

TEST_F(DuetCoreTest, InitialScanReportsPreexistingPages) {
  InodeNo ino = MakeFile("/f", 8);
  ReadSync(ino, 0, 8 * kPageSize);  // cache before registering
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageAdded);
  std::vector<DuetItem> items = FetchAll(sid);
  EXPECT_EQ(items.size(), 8u);  // scan made them immediately available
}

TEST_F(DuetCoreTest, InitialScanMarksDirtyPages) {
  InodeNo ino = MakeFile("/f", 2);
  WriteSync(ino, 0, kPageSize);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageAdded | kDuetPageDirtied);
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(items[0].has(kDuetPageDirtied));
}

TEST_F(DuetCoreTest, EventMaskFiltersNotifications) {
  InodeNo ino = MakeFile("/f", 2);
  SessionId dirty_only = *duet_.RegisterBlockTask(kDuetPageDirtied);
  ReadSync(ino, 0, 2 * kPageSize);  // Added events: not subscribed
  EXPECT_TRUE(FetchAll(dirty_only).empty());
  WriteSync(ino, 0, kPageSize);
  std::vector<DuetItem> items = FetchAll(dirty_only);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(items[0].has(kDuetPageDirtied));
}

TEST_F(DuetCoreTest, EventSemanticsAccumulateAcrossFetches) {
  // §3.2's example: page added, fetch, page removed -> the next fetch
  // returns the item with only the Removed bit set.
  InodeNo ino = MakeFile("/f", 1);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageAdded | kDuetPageRemoved);
  ReadSync(ino, 0, kPageSize);
  std::vector<DuetItem> first = FetchAll(sid);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].has(kDuetPageAdded));
  EXPECT_FALSE(first[0].has(kDuetPageRemoved));
  fs_.cache().Remove(ino, 0);
  std::vector<DuetItem> second = FetchAll(sid);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].has(kDuetPageRemoved));
  EXPECT_FALSE(second[0].has(kDuetPageAdded));
}

TEST_F(DuetCoreTest, StateNotificationsCancelOut) {
  // §3.2: registered for Exists; a page removed and re-added between two
  // fetches reverts to the same state -> no event on the next fetch.
  InodeNo ino = MakeFile("/f", 1);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageExists);
  ReadSync(ino, 0, kPageSize);
  std::vector<DuetItem> first = FetchAll(sid);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].has(kDuetPageExists));
  // Remove and re-add between fetches.
  uint64_t token = fs_.cache().Peek(ino, 0)->data;
  fs_.cache().Remove(ino, 0);
  fs_.cache().Insert(ino, 0, token, false);
  EXPECT_TRUE(FetchAll(sid).empty());
}

TEST_F(DuetCoreTest, StateNotificationReportsCurrentPolarity) {
  InodeNo ino = MakeFile("/f", 1);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageExists);
  ReadSync(ino, 0, kPageSize);
  ASSERT_EQ(FetchAll(sid).size(), 1u);
  fs_.cache().Remove(ino, 0);
  std::vector<DuetItem> gone = FetchAll(sid);
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_TRUE(gone[0].has(kDuetPageRemoved));  // ¬Exists polarity
  EXPECT_FALSE(gone[0].has(kDuetPageExists));
}

TEST_F(DuetCoreTest, ModifiedStateTracksDirtyFlush) {
  InodeNo ino = MakeFile("/f", 1);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageModified);
  WriteSync(ino, 0, kPageSize);
  std::vector<DuetItem> dirty = FetchAll(sid);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_TRUE(dirty[0].has(kDuetPageModified));
  fs_.writeback().Sync(nullptr);
  rig_.loop.Run();
  std::vector<DuetItem> clean = FetchAll(sid);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_TRUE(clean[0].has(kDuetPageFlushed));  // ¬Modified polarity
}

TEST_F(DuetCoreTest, DirtyFlushCancelsForModifiedSubscriber) {
  InodeNo ino = MakeFile("/f", 1);
  ReadSync(ino, 0, kPageSize);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageModified);
  (void)FetchAll(sid);
  WriteSync(ino, 0, kPageSize);
  fs_.writeback().Sync(nullptr);
  rig_.loop.Run();
  // Dirty then flushed between fetches: net modification state unchanged.
  // (The block changed due to COW, so fetch may translate to a new block,
  // but no *state* item should surface for the old state.)
  for (const DuetItem& item : FetchAll(sid)) {
    EXPECT_FALSE(item.has(kDuetPageModified));
  }
}

TEST_F(DuetCoreTest, SetDoneSuppressesFutureEvents) {
  InodeNo ino = MakeFile("/f", 2);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageAdded);
  BlockNo b0 = *fs_.Bmap(ino, 0);
  ASSERT_TRUE(duet_.SetDone(sid, b0).ok());
  EXPECT_TRUE(duet_.CheckDone(sid, b0));
  ReadSync(ino, 0, 2 * kPageSize);
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 1u);  // only page 1's block
  EXPECT_EQ(items[0].id, *fs_.Bmap(ino, 1));
}

TEST_F(DuetCoreTest, UnsetDoneReenablesEvents) {
  InodeNo ino = MakeFile("/f", 1);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageAdded);
  BlockNo b = *fs_.Bmap(ino, 0);
  ASSERT_TRUE(duet_.SetDone(sid, b).ok());
  ASSERT_TRUE(duet_.UnsetDone(sid, b).ok());
  EXPECT_FALSE(duet_.CheckDone(sid, b));
  ReadSync(ino, 0, kPageSize);
  EXPECT_EQ(FetchAll(sid).size(), 1u);
}

TEST_F(DuetCoreTest, FileTaskSetDoneSuppressesWholeFile) {
  ASSERT_TRUE(fs_.Mkdir("/w").ok());
  InodeNo a = MakeFile("/w/a", 2);
  InodeNo b = MakeFile("/w/b", 2);
  SessionId sid = *duet_.RegisterFileTask("/w", kDuetPageExists);
  ASSERT_TRUE(duet_.SetDone(sid, a).ok());
  ReadSync(a, 0, 2 * kPageSize);
  ReadSync(b, 0, 2 * kPageSize);
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 2u);
  for (const DuetItem& item : items) {
    EXPECT_EQ(item.id, b);
  }
}

TEST_F(DuetCoreTest, SetDoneClearsAlreadyQueuedNotifications) {
  ASSERT_TRUE(fs_.Mkdir("/w").ok());
  InodeNo a = MakeFile("/w/a", 4);
  SessionId sid = *duet_.RegisterFileTask("/w", kDuetPageExists);
  ReadSync(a, 0, 4 * kPageSize);
  EXPECT_GT(duet_.PendingCount(sid), 0u);
  ASSERT_TRUE(duet_.SetDone(sid, a).ok());
  EXPECT_TRUE(FetchAll(sid).empty());
}

TEST_F(DuetCoreTest, GetPathTranslatesAndValidates) {
  ASSERT_TRUE(fs_.Mkdir("/w").ok());
  ASSERT_TRUE(fs_.Mkdir("/w/sub").ok());
  InodeNo ino = MakeFile("/w/sub/file", 2);
  SessionId sid = *duet_.RegisterFileTask("/w", kDuetPageExists);
  // No cached pages: the hint "truth" fails.
  EXPECT_FALSE(duet_.GetPath(sid, ino).ok());
  ReadSync(ino, 0, kPageSize);
  Result<std::string> path = duet_.GetPath(sid, ino);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/sub/file");
  // Outside inode fails.
  InodeNo out = MakeFile("/other", 1);
  ReadSync(out, 0, kPageSize);
  EXPECT_FALSE(duet_.GetPath(sid, out).ok());
}

TEST_F(DuetCoreTest, GetPathFailsAfterEviction) {
  ASSERT_TRUE(fs_.Mkdir("/w").ok());
  InodeNo ino = MakeFile("/w/f", 1);
  SessionId sid = *duet_.RegisterFileTask("/w", kDuetPageExists);
  ReadSync(ino, 0, kPageSize);
  ASSERT_TRUE(duet_.GetPath(sid, ino).ok());
  fs_.cache().RemoveInode(ino);
  EXPECT_FALSE(duet_.GetPath(sid, ino).ok());
}

TEST_F(DuetCoreTest, FileMovedIntoWatchedDirGeneratesEvents) {
  ASSERT_TRUE(fs_.Mkdir("/w").ok());
  InodeNo ino = MakeFile("/outside", 3);
  SessionId sid = *duet_.RegisterFileTask("/w", kDuetPageExists);
  ReadSync(ino, 0, 3 * kPageSize);
  EXPECT_TRUE(FetchAll(sid).empty());  // outside: no events
  ASSERT_TRUE(fs_.ns().Rename(ino, *fs_.ns().Resolve("/w"), "moved").ok());
  std::vector<DuetItem> items = FetchAll(sid);
  EXPECT_EQ(items.size(), 3u);  // cached pages surfaced like a fresh scan
  for (const DuetItem& item : items) {
    EXPECT_EQ(item.id, ino);
    EXPECT_TRUE(item.has(kDuetPageExists));
  }
}

TEST_F(DuetCoreTest, FileMovedOutGeneratesRemovalsAndDone) {
  ASSERT_TRUE(fs_.Mkdir("/w").ok());
  InodeNo ino = MakeFile("/w/f", 2);
  SessionId sid = *duet_.RegisterFileTask("/w", kDuetPageExists);
  ReadSync(ino, 0, 2 * kPageSize);
  (void)FetchAll(sid);
  ASSERT_TRUE(fs_.ns().Rename(ino, fs_.ns().root(), "gone").ok());
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 2u);
  for (const DuetItem& item : items) {
    EXPECT_TRUE(item.has(kDuetPageRemoved));
  }
  EXPECT_TRUE(duet_.CheckDone(sid, ino));
  // Future activity on the file is ignored.
  ReadSync(ino, 0, 2 * kPageSize);
  EXPECT_TRUE(FetchAll(sid).empty());
}

TEST_F(DuetCoreTest, DirectoryRenameResetsUnprocessedFiles) {
  ASSERT_TRUE(fs_.Mkdir("/w").ok());
  ASSERT_TRUE(fs_.Mkdir("/w/d").ok());
  InodeNo processed = MakeFile("/w/d/done", 1);
  InodeNo pending = MakeFile("/w/d/pending", 1);
  SessionId sid = *duet_.RegisterFileTask("/w", kDuetPageExists);
  ReadSync(processed, 0, kPageSize);
  ReadSync(pending, 0, kPageSize);
  (void)FetchAll(sid);
  ASSERT_TRUE(duet_.SetDone(sid, processed).ok());
  InodeNo d = *fs_.ns().Resolve("/w/d");
  ASSERT_TRUE(fs_.ns().Rename(d, *fs_.ns().Resolve("/w"), "renamed").ok());
  // Processed file (relevant+done) still done; pending file relevance reset
  // but events flow again on next access.
  EXPECT_TRUE(duet_.CheckDone(sid, processed));
  fs_.cache().RemoveInode(pending);
  // Consume the ¬exists notification so the re-read below is a fresh state
  // change (a remove + re-add between fetches would cancel out, §3.2).
  (void)FetchAll(sid);
  ReadSync(pending, 0, kPageSize);
  std::vector<DuetItem> items = FetchAll(sid);
  bool saw_pending = false;
  for (const DuetItem& item : items) {
    if (item.id == pending) {
      saw_pending = true;
    }
    EXPECT_NE(item.id, processed);
  }
  EXPECT_TRUE(saw_pending);
}

TEST_F(DuetCoreTest, DescriptorLimitDropsEventOnlySessions) {
  DuetConfig config;
  config.max_pending_per_session = 4;
  obs::ObsContext limited_obs;
  obs::ObsScope limited_scope(&limited_obs);
  DuetCore limited(&fs_, config);
  InodeNo ino = MakeFile("/big", 16);
  SessionId sid = *limited.RegisterBlockTask(kDuetPageAdded);
  ReadSync(ino, 0, 16 * kPageSize);
  EXPECT_LE(limited.PendingCount(sid), 4u);
  EXPECT_GT(limited_obs.metrics.CounterValue("duet.events.dropped"), 0u);
  std::vector<DuetItem> items;
  while (true) {
    auto batch = limited.Fetch(sid, 64);
    ASSERT_TRUE(batch.ok());
    if (batch->empty()) {
      break;
    }
    items.insert(items.end(), batch->begin(), batch->end());
  }
  EXPECT_EQ(items.size(), 4u);
}

TEST_F(DuetCoreTest, StateSessionsAreNotSubjectToDropLimit) {
  DuetConfig config;
  config.max_pending_per_session = 4;
  obs::ObsContext limited_obs;
  obs::ObsScope limited_scope(&limited_obs);
  DuetCore limited(&fs_, config);
  InodeNo ino = MakeFile("/big", 16);
  SessionId sid = *limited.RegisterBlockTask(kDuetPageExists);
  ReadSync(ino, 0, 16 * kPageSize);
  uint64_t fetched = 0;
  while (true) {
    auto batch = limited.Fetch(sid, 64);
    ASSERT_TRUE(batch.ok());
    if (batch->empty()) {
      break;
    }
    fetched += batch->size();
  }
  EXPECT_EQ(fetched, 16u);
  EXPECT_EQ(limited_obs.metrics.CounterValue("duet.events.dropped"), 0u);
}

TEST_F(DuetCoreTest, DescriptorsFreeOnceUpToDateAndEvicted) {
  InodeNo ino = MakeFile("/f", 4);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageAdded);
  ReadSync(ino, 0, 4 * kPageSize);
  EXPECT_EQ(duet_.descriptor_count(), 4u);
  (void)FetchAll(sid);
  // Event-only session: descriptors freed as soon as they are up to date.
  EXPECT_EQ(duet_.descriptor_count(), 0u);
}

TEST_F(DuetCoreTest, StateDescriptorsBoundedByCachedPages) {
  InodeNo ino = MakeFile("/f", 4);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageExists);
  ReadSync(ino, 0, 4 * kPageSize);
  (void)FetchAll(sid);
  // Pages still cached: descriptors stay (reported state is live context).
  EXPECT_EQ(duet_.descriptor_count(), 4u);
  fs_.cache().RemoveInode(ino);
  (void)FetchAll(sid);  // consume the ¬exists notifications
  EXPECT_EQ(duet_.descriptor_count(), 0u);
}

// Backup's pattern: a state session marks each block done while its page is
// cached. The skipped eviction moves the session's snapshot along, so the
// done items pin no descriptor once their pages leave, nor after the file is
// deleted (§4.2's 2x-cached-pages bound).
TEST_F(DuetCoreTest, DoneItemDescriptorsLeaveWithTheirPages) {
  InodeNo ino = MakeFile("/f", 4);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageExists);
  ReadSync(ino, 0, 4 * kPageSize);
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 4u);
  for (const DuetItem& item : items) {
    ASSERT_TRUE(duet_.SetDone(sid, item.id).ok());
  }
  EXPECT_EQ(duet_.descriptor_count(), 4u);  // cached: kept as live context
  for (PageIdx p = 0; p < 4; ++p) {
    ASSERT_TRUE(fs_.cache().Remove(ino, p));
  }
  ASSERT_TRUE(fs_.DeleteFile(ino).ok());
  EXPECT_TRUE(FetchAll(sid).empty());
  EXPECT_EQ(duet_.descriptor_count(), 0u);
  EXPECT_EQ(ctx_.metrics.FindGauge("duet.desc.live")->value(), 0);
  EXPECT_EQ(ctx_.metrics.FindGauge("duet.desc.peak")->value(), 4);
}

// A done page that is evicted and then overwritten moves to a fresh block
// (COW allocates before the page is cached again). Its old descriptor went
// with the eviction, so the new block is reported as existing.
TEST_F(DuetCoreTest, OverwrittenDonePageReportsItsNewBlock) {
  InodeNo ino = MakeFile("/f", 1);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageExists);
  ReadSync(ino, 0, kPageSize);
  BlockNo old_block = *fs_.Bmap(ino, 0);
  ASSERT_EQ(FetchAll(sid).size(), 1u);
  ASSERT_TRUE(duet_.SetDone(sid, old_block).ok());
  ASSERT_TRUE(fs_.cache().Remove(ino, 0));
  EXPECT_EQ(duet_.descriptor_count(), 0u);
  WriteSync(ino, 0, kPageSize);
  BlockNo new_block = *fs_.Bmap(ino, 0);
  ASSERT_NE(new_block, old_block);
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].id, new_block);
  EXPECT_EQ(items[0].flags, kDuetPageExists);
}

// After a COW under a snapshot, the page's old block stays in use (the
// snapshot holds it) and keeps its reverse-map entry. Marking that old block
// done is about the block alone: the page, which now lives in a new block,
// keeps its pending report.
TEST_F(DuetCoreTest, DoneSnapshotBlockKeepsMovedPagesReport) {
  InodeNo ino = MakeFile("/f", 1);
  BlockNo old_block = *fs_.Bmap(ino, 0);
  ASSERT_TRUE(fs_.CreateSnapshot().ok());
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageExists);
  WriteSync(ino, 0, kPageSize);
  BlockNo new_block = *fs_.Bmap(ino, 0);
  ASSERT_NE(new_block, old_block);
  ASSERT_TRUE(fs_.BlockInUse(old_block));
  ASSERT_EQ(fs_.Rmap(old_block)->ino, ino);  // the old block's stale owner
  ASSERT_EQ(duet_.PendingCount(sid), 1u);
  ASSERT_TRUE(duet_.SetDone(sid, old_block).ok());
  EXPECT_EQ(duet_.PendingCount(sid), 1u);
  std::vector<DuetItem> items = FetchAll(sid);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].id, new_block);
  EXPECT_EQ(items[0].flags, kDuetPageExists);
}

TEST_F(DuetCoreTest, MemoryAccountingExposed) {
  InodeNo ino = MakeFile("/f", 8);
  SessionId sid = *duet_.RegisterBlockTask(kDuetPageExists);
  ReadSync(ino, 0, 8 * kPageSize);
  // Accounting is sizeof-accurate (arena capacity + freelist + page index),
  // so it must at least cover one 24-byte descriptor and one 4-byte index
  // slot per live page.
  EXPECT_EQ(duet_.descriptor_count(), 8u);
  EXPECT_GE(duet_.DescriptorMemoryBytes(), duet_.descriptor_count() * (24 + 4));
  ASSERT_TRUE(duet_.SetDone(sid, *fs_.Bmap(ino, 0)).ok());
  EXPECT_GT(duet_.SessionBitmapBytes(sid), 0u);
}

TEST_F(DuetCoreTest, TwoSessionsSeeIndependentStreams) {
  InodeNo ino = MakeFile("/f", 2);
  SessionId a = *duet_.RegisterBlockTask(kDuetPageAdded);
  SessionId b = *duet_.RegisterBlockTask(kDuetPageAdded);
  ReadSync(ino, 0, 2 * kPageSize);
  EXPECT_EQ(FetchAll(a).size(), 2u);
  EXPECT_EQ(FetchAll(a).size(), 0u);  // a's stream drained
  EXPECT_EQ(FetchAll(b).size(), 2u);  // b unaffected by a's fetches
}

TEST_F(DuetCoreTest, DoneIsPerSession) {
  InodeNo ino = MakeFile("/f", 1);
  SessionId a = *duet_.RegisterBlockTask(kDuetPageAdded);
  SessionId b = *duet_.RegisterBlockTask(kDuetPageAdded);
  BlockNo block = *fs_.Bmap(ino, 0);
  ASSERT_TRUE(duet_.SetDone(a, block).ok());
  ReadSync(ino, 0, kPageSize);
  EXPECT_TRUE(FetchAll(a).empty());
  EXPECT_EQ(FetchAll(b).size(), 1u);
}

}  // namespace
}  // namespace duet
