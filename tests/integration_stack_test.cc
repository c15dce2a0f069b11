// Randomized full-stack churn with invariant checking: file operations,
// snapshots, defragmentation, cache pressure, and Duet sessions all running
// against one cowfs/logfs instance, with structural invariants verified
// after every burst of activity.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/logfs/logfs.h"
#include "src/obs/obs.h"
#include "src/tasks/scrubber.h"
#include "src/util/format.h"
#include "src/util/rng.h"
#include "src/workload/filebench.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

// ---- cowfs invariants ----

// Every allocated block's refcount equals the number of live-file mappings
// plus snapshot references pointing at it; allocated_blocks() is consistent.
void CheckCowFsInvariants(CowFs& fs, const std::vector<SnapshotId>& snapshots) {
  std::map<BlockNo, uint32_t> expected_refs;
  fs.ns().ForEachInode([&](const Inode& inode) {
    if (inode.is_dir()) {
      return;
    }
    for (PageIdx p = 0; p < inode.PageCount(); ++p) {
      Result<BlockNo> block = fs.Bmap(inode.ino, p);
      ASSERT_TRUE(block.ok()) << "hole in live file " << inode.ino << " page " << p;
      ++expected_refs[*block];
      // Reverse map must agree with the forward map.
      Result<FileSystem::BlockOwner> owner = fs.Rmap(*block);
      ASSERT_TRUE(owner.ok());
      EXPECT_EQ(owner->ino, inode.ino);
      EXPECT_EQ(owner->idx, p);
    }
  });
  for (SnapshotId id : snapshots) {
    const CowFs::Snapshot* snap = fs.GetSnapshot(id);
    ASSERT_NE(snap, nullptr);
    for (const auto& [ino, file] : snap->files) {
      for (BlockNo block : file.blocks) {
        if (block != kInvalidBlock) {
          ++expected_refs[block];
        }
      }
    }
  }
  uint64_t allocated = 0;
  for (const auto& [block, refs] : expected_refs) {
    EXPECT_TRUE(fs.BlockInUse(block)) << "block " << block;
    EXPECT_EQ(fs.BlockRefcount(block), refs) << "block " << block;
    ++allocated;
  }
  EXPECT_EQ(fs.allocated_blocks(), allocated);
}

// After a full sync, every allocated block's checksum verifies and every
// page's content matches the disk.
void CheckChecksumIntegrity(CowFs& fs) {
  fs.ns().ForEachInode([&](const Inode& inode) {
    if (inode.is_dir()) {
      return;
    }
    for (PageIdx p = 0; p < inode.PageCount(); ++p) {
      BlockNo block = *fs.Bmap(inode.ino, p);
      EXPECT_TRUE(fs.BlockChecksumOk(block))
          << "ino " << inode.ino << " page " << p;
    }
  });
}

TEST(IntegrationStackTest, CowFsSurvivesRandomChurn) {
  Rng rng(101);
  SimRig rig(400'000, Micros(50));
  CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/256);
  DuetCore duet(&fs);
  // A couple of passive sessions so hook paths run throughout.
  SessionId block_sid = *duet.RegisterBlockTask(kDuetPageExists | kDuetPageModified);
  SessionId file_sid = *duet.RegisterFileTask("/", kDuetPageAdded | kDuetPageDirtied);

  std::vector<InodeNo> files;
  std::vector<SnapshotId> snapshots;
  for (int i = 0; i < 30; ++i) {
    files.push_back(*fs.PopulateFile(StrFormat("/f%d", i),
                                     (1 + rng.Uniform(24)) * kPageSize));
  }

  for (int round = 0; round < 25; ++round) {
    // A burst of random operations.
    for (int op = 0; op < 20; ++op) {
      uint64_t pick = rng.Uniform(100);
      if (pick < 35 && !files.empty()) {  // read
        InodeNo ino = files[rng.Uniform(files.size())];
        const Inode* inode = fs.ns().Get(ino);
        fs.Read(ino, 0, inode->size, IoClass::kBestEffort, nullptr);
      } else if (pick < 65 && !files.empty()) {  // overwrite / append
        InodeNo ino = files[rng.Uniform(files.size())];
        const Inode* inode = fs.ns().Get(ino);
        uint64_t len = std::min<uint64_t>(inode->size, 4 * kPageSize);
        if (rng.Chance(0.5)) {
          fs.Write(ino, 0, std::max<uint64_t>(len, 1), IoClass::kBestEffort, nullptr);
        } else {
          fs.Append(ino, kPageSize, IoClass::kBestEffort, nullptr);
        }
      } else if (pick < 75) {  // create
        Result<InodeNo> fresh = fs.PopulateFile(
            StrFormat("/n%d_%d", round, op), (1 + rng.Uniform(8)) * kPageSize);
        if (fresh.ok()) {
          files.push_back(*fresh);
        }
      } else if (pick < 82 && files.size() > 5) {  // delete
        size_t idx = rng.Uniform(files.size());
        ASSERT_TRUE(fs.DeleteFile(files[idx]).ok());
        files[idx] = files.back();
        files.pop_back();
      } else if (pick < 88 && !files.empty()) {  // defrag
        InodeNo ino = files[rng.Uniform(files.size())];
        fs.DefragFile(ino, IoClass::kIdle, [](const DefragResult&) {});
      } else if (pick < 93 && snapshots.size() < 3) {  // snapshot
        fs.CreateSnapshotAsync([&](Result<SnapshotId> snap) {
          if (snap.ok()) {
            snapshots.push_back(*snap);
          }
        });
      } else if (!snapshots.empty()) {  // drop a snapshot
        size_t idx = rng.Uniform(snapshots.size());
        ASSERT_TRUE(fs.DeleteSnapshot(snapshots[idx]).ok());
        snapshots[idx] = snapshots.back();
        snapshots.pop_back();
      }
      rig.loop.RunUntil(rig.loop.now() + Millis(rng.Uniform(20)));
    }
    // Drain Duet sessions occasionally (keeps descriptor churn realistic).
    if (round % 3 == 0) {
      (void)duet.Fetch(block_sid, 4096);
      (void)duet.Fetch(file_sid, 4096);
    }
    rig.loop.RunUntil(rig.loop.now() + Millis(200));
    CheckCowFsInvariants(fs, snapshots);
    // Cache invariants.
    EXPECT_LE(fs.cache().DirtyCount(), fs.cache().PageCount());
  }

  // Quiesce and verify end-to-end integrity.
  fs.writeback().Sync(nullptr);
  rig.loop.Run();
  EXPECT_EQ(fs.cache().DirtyCount(), 0u);
  CheckChecksumIntegrity(fs);
  CheckCowFsInvariants(fs, snapshots);
  EXPECT_EQ(fs.checksum_errors_detected(), 0u);
}

// ---- logfs invariants ----

void CheckLogFsInvariants(LogFs& fs) {
  // Sum of per-segment valid counts equals allocated blocks, and every live
  // file mapping points at a valid block owned by that page.
  uint64_t valid_total = 0;
  for (SegmentNo s = 0; s < fs.segment_count(); ++s) {
    const SegmentInfo& info = fs.segment(s);
    EXPECT_LE(info.valid, info.written);
    EXPECT_LE(info.written, fs.segment_blocks());
    valid_total += info.valid;
    for (BlockNo b : fs.ValidBlocksOf(s)) {
      Result<FileSystem::BlockOwner> owner = fs.Rmap(b);
      ASSERT_TRUE(owner.ok()) << "valid block " << b << " without owner";
      Result<BlockNo> mapped = fs.Bmap(owner->ino, owner->idx);
      ASSERT_TRUE(mapped.ok());
      EXPECT_EQ(*mapped, b);
    }
  }
  EXPECT_EQ(valid_total, fs.allocated_blocks());
  uint64_t mapped_total = 0;
  fs.ns().ForEachInode([&](const Inode& inode) {
    if (!inode.is_dir()) {
      for (PageIdx p = 0; p < inode.PageCount(); ++p) {
        Result<BlockNo> block = fs.Bmap(inode.ino, p);
        ASSERT_TRUE(block.ok());
        EXPECT_TRUE(fs.BlockInUse(*block));
        ++mapped_total;
      }
    }
  });
  EXPECT_EQ(mapped_total, valid_total);
}

TEST(IntegrationStackTest, LogFsSurvivesChurnAndCleaning) {
  Rng rng(202);
  SimRig rig(32'768, Micros(50));
  LogFs fs(&rig.loop, &rig.device, /*cache_pages=*/256, /*segment_blocks=*/64);
  std::vector<InodeNo> files;
  for (int i = 0; i < 12; ++i) {
    files.push_back(*fs.PopulateFile(StrFormat("/f%d", i), 24 * kPageSize));
  }
  // Record content so we can verify preservation across cleaning.
  auto content_of = [&](InodeNo ino) {
    std::vector<uint64_t> tokens;
    const Inode* inode = fs.ns().Get(ino);
    for (PageIdx p = 0; p < inode->PageCount(); ++p) {
      tokens.push_back(*fs.PageContent(ino, p));
    }
    return tokens;
  };

  for (int round = 0; round < 20; ++round) {
    for (int op = 0; op < 10; ++op) {
      InodeNo ino = files[rng.Uniform(files.size())];
      const Inode* inode = fs.ns().Get(ino);
      uint64_t pages = 1 + rng.Uniform(8);
      ByteOff off = rng.Uniform(inode->PageCount()) * kPageSize;
      fs.Write(ino, off, pages * kPageSize, IoClass::kBestEffort, nullptr);
      rig.loop.RunUntil(rig.loop.now() + Millis(rng.Uniform(10)));
    }
    // Clean the best victim, if any.
    auto victim = fs.SelectVictim(0, fs.segment_count(),
                                  [&](SegmentNo, const SegmentInfo& info) {
                                    return GcCostBaseline(info, fs.segment_blocks(),
                                                          rig.loop.now());
                                  });
    if (victim.has_value()) {
      std::map<InodeNo, std::vector<uint64_t>> before;
      for (InodeNo ino : files) {
        before[ino] = content_of(ino);
      }
      bool done = false;
      fs.CleanSegment(*victim, IoClass::kBestEffort, [&](const CleanResult& r) {
        EXPECT_TRUE(r.status.ok()) << r.status.ToString();
        done = true;
      });
      rig.loop.RunUntil(rig.loop.now() + Seconds(2));
      ASSERT_TRUE(done);
      // Cleaning must not change any file's content.
      for (InodeNo ino : files) {
        EXPECT_EQ(content_of(ino), before[ino]) << "ino " << ino;
      }
    }
    CheckLogFsInvariants(fs);
  }
  fs.writeback().Sync(nullptr);
  rig.loop.Run();
  CheckLogFsInvariants(fs);
}

// Registry conservation laws: after churn + a workload burst + a completed
// scrub + a full sync, the metric counters must balance exactly — every page
// added was removed or is still resident, every dirtying was flushed or left
// with its page, Duet saw every cache event, and every workload op is
// accounted for.
TEST(IntegrationStackTest, MetricsConservationLawsAtQuiescence) {
  Rng rng(303);
  SimRig rig(200'000, Micros(50));
  // Small cache so eviction paths run during the churn.
  CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/128);
  DuetCore duet(&fs);
  SessionId sid = *duet.RegisterBlockTask(kDuetPageExists | kDuetPageModified);

  std::vector<InodeNo> files;
  for (int i = 0; i < 15; ++i) {
    files.push_back(*fs.PopulateFile(StrFormat("/f%d", i),
                                     (4 + rng.Uniform(20)) * kPageSize));
  }
  for (int op = 0; op < 150; ++op) {
    uint64_t pick = rng.Uniform(100);
    InodeNo ino = files[rng.Uniform(files.size())];
    if (pick < 45) {
      const Inode* inode = fs.ns().Get(ino);
      fs.Read(ino, 0, inode->size, IoClass::kBestEffort, nullptr);
    } else if (pick < 85) {
      fs.Write(ino, 0, 2 * kPageSize, IoClass::kBestEffort, nullptr);
    } else if (pick < 92 && files.size() > 5) {
      // Deleting dirty files exercises the removed_dirty leg of the law.
      auto it = std::find(files.begin(), files.end(), ino);
      ASSERT_TRUE(fs.DeleteFile(ino).ok());
      *it = files.back();
      files.pop_back();
    } else {
      (void)duet.Fetch(sid, 256);
    }
    rig.loop.RunUntil(rig.loop.now() + Millis(rng.Uniform(10)));
  }

  // A fileserver burst on the same stack (overwrites, appends, creates and
  // deletes) feeds the workload laws. Its last op drains during the scrub.
  WorkloadConfig wc;
  wc.personality = Personality::kFileserver;
  wc.file_count = 40;
  wc.mean_file_size = 16 * 1024;
  wc.seed = 303;
  FilebenchWorkload workload(&fs, wc);
  ASSERT_TRUE(workload.Setup().ok());
  workload.Start();
  rig.loop.RunUntil(rig.loop.now() + Seconds(2));
  workload.Stop();

  // A full Duet scrub pass, run to completion with nothing else going on.
  ScrubberConfig sc;
  sc.use_duet = true;
  Scrubber scrub(&fs, &duet, sc);
  bool finished = false;
  scrub.Start([&] { finished = true; });
  rig.loop.Run();
  ASSERT_TRUE(finished);

  // Quiesce: flush every dirty page.
  fs.writeback().Sync(nullptr);
  rig.loop.Run();
  ASSERT_EQ(fs.cache().DirtyCount(), 0u);

  obs::MetricsSnapshot snap = rig.obs.metrics.Snapshot();
  // Page conservation: every page ever added was removed or is resident.
  EXPECT_EQ(snap.Value("cache.added"),
            snap.Value("cache.removed") + fs.cache().PageCount());
  // Dirty conservation (no dirty residents after sync): every clean->dirty
  // transition was either flushed or carried out with its page.
  EXPECT_EQ(snap.Value("cache.dirtied"),
            snap.Value("cache.flushed") + snap.Value("cache.removed_dirty"));
  // Evictions are a subset of removals.
  EXPECT_LE(snap.Value("cache.evictions"), snap.Value("cache.removed"));
  EXPECT_GT(snap.Value("cache.evictions"), 0u);  // the small cache did evict

  // Duet pipeline accounting: the framework hooked every cache event (it
  // listened from the cache's first event on), and fetch merging can only
  // shrink the delivered stream.
  EXPECT_EQ(snap.Value("duet.hooks"),
            snap.Value("cache.added") + snap.Value("cache.removed") +
                snap.Value("cache.dirtied") + snap.Value("cache.flushed"));
  EXPECT_LE(snap.Value("duet.items.fetched"), snap.Value("duet.events.delivered"));

  // Workload accounting: every completed op is a read or a write, creates
  // and deletes are writes, and no op completes without being issued.
  uint64_t completed = snap.Value("workload.ops.completed");
  uint64_t writes = snap.Value("workload.ops.write");
  uint64_t creates = snap.Value("workload.ops.create");
  uint64_t deletes = snap.Value("workload.ops.delete");
  EXPECT_GT(completed, 0u);
  EXPECT_GT(creates + deletes, 0u);  // the namespace legs ran
  EXPECT_EQ(completed, snap.Value("workload.ops.read") + writes);
  EXPECT_GE(writes, creates + deletes);
  EXPECT_GE(snap.Value("workload.ops.issued"), completed);

  // Scrub coverage: the finished pass verified (read or free-rode) every
  // allocated block it set out to cover.
  const TaskStats& s = scrub.stats();
  EXPECT_TRUE(s.finished);
  EXPECT_EQ(s.work_done, s.work_total);
  EXPECT_GE(s.io_read_pages + s.saved_read_pages, s.work_total);
  EXPECT_EQ(snap.Value("tasks.scrub.started"), 1u);
  EXPECT_EQ(snap.Value("tasks.scrub.finished"), 1u);
}

// Crash a churning cowfs stack mid-flight, rebuild over the surviving durable
// image, and require that every structural and quiescence invariant the
// uncrashed churn tests enforce also holds on the recovered instance — and
// keeps holding through further churn and a fresh superblock commit.
TEST(IntegrationStackTest, CowFsInvariantsHoldAfterCrashRecovery) {
  DurableImage image(100'000);
  {
    SimRig rig(100'000, Micros(50));
    CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/128);
    fs.AttachDurableImage(&image);
    std::vector<InodeNo> files;
    for (int i = 0; i < 16; ++i) {
      files.push_back(*fs.PopulateFile(StrFormat("/f%d", i), 8 * kPageSize));
    }
    fs.SnapshotToDurable();
    bool committed = false;
    fs.Checkpoint([&] { committed = true; });
    rig.loop.Run();
    ASSERT_TRUE(committed);

    // Churn with a sync mid-stream, then pull the plug with writes and a
    // barrier still in flight.
    Rng rng(404);
    for (int op = 0; op < 40; ++op) {
      InodeNo ino = files[rng.Uniform(files.size())];
      fs.Write(ino, rng.Uniform(8) * kPageSize, kPageSize, IoClass::kBestEffort,
               nullptr);
      rig.loop.RunUntil(rig.loop.now() + Millis(1));
      if (op == 20) {
        fs.Sync([] {});
      }
    }
    fs.Sync([] {});
    rig.loop.RunUntil(rig.loop.now() + Micros(300));  // barrier mid-service
    rig.device.CrashFreeze();
  }

  image.Thaw();
  SimRig rig(100'000, Micros(50));
  CowFs fs(&rig.loop, &rig.device, /*cache_pages=*/128);
  fs.AttachDurableImage(&image);
  MountReport report;
  bool mounted = false;
  fs.Mount([&](const MountReport& r) {
    report = r;
    mounted = true;
  });
  rig.loop.Run();
  ASSERT_TRUE(mounted);
  ASSERT_TRUE(report.status.ok()) << report.status.message();
  FsckReport fsck = fs.CheckConsistency();
  EXPECT_EQ(fsck.structural_errors, 0u) << "first bad block " << fsck.first_bad_block;
  EXPECT_EQ(fsck.checksum_errors, 0u);
  CheckCowFsInvariants(fs, {});

  // The recovered instance must behave like a freshly built one: more churn,
  // then full quiescence with every invariant intact.
  Rng rng(505);
  std::vector<InodeNo> files;
  fs.ns().ForEachInode([&](const Inode& inode) {
    if (!inode.is_dir()) {
      files.push_back(inode.ino);
    }
  });
  ASSERT_EQ(files.size(), 16u);
  std::vector<SnapshotId> snapshots;
  for (int op = 0; op < 40; ++op) {
    InodeNo ino = files[rng.Uniform(files.size())];
    if (rng.Chance(0.3)) {
      fs.Read(ino, 0, 8 * kPageSize, IoClass::kBestEffort, nullptr);
    } else {
      fs.Write(ino, rng.Uniform(8) * kPageSize, kPageSize, IoClass::kBestEffort,
               nullptr);
    }
    rig.loop.RunUntil(rig.loop.now() + Millis(2));
  }
  fs.CreateSnapshotAsync([&](Result<SnapshotId> snap) {
    ASSERT_TRUE(snap.ok());
    snapshots.push_back(*snap);
  });
  rig.loop.Run();
  fs.writeback().Sync(nullptr);
  rig.loop.Run();
  EXPECT_EQ(fs.cache().DirtyCount(), 0u);
  CheckChecksumIntegrity(fs);
  CheckCowFsInvariants(fs, snapshots);
  EXPECT_EQ(fs.checksum_errors_detected(), 0u);

  // And a fresh superblock commit succeeds on the recovered tree.
  bool committed = false;
  fs.Checkpoint([&] { committed = true; });
  rig.loop.Run();
  EXPECT_TRUE(committed);
}

// Same shape for logfs: crash mid-log, remount (checkpoint restore plus
// roll-forward replay), then verify segment accounting and mapping invariants
// survive both the recovery and further churn to quiescence.
TEST(IntegrationStackTest, LogFsInvariantsHoldAfterCrashRecovery) {
  DurableImage image(32'768);
  {
    SimRig rig(32'768, Micros(50));
    LogFs fs(&rig.loop, &rig.device, /*cache_pages=*/128, /*segment_blocks=*/64);
    fs.AttachDurableImage(&image);
    std::vector<InodeNo> files;
    for (int i = 0; i < 12; ++i) {
      files.push_back(*fs.PopulateFile(StrFormat("/f%d", i), 8 * kPageSize));
    }
    fs.SnapshotToDurable();
    bool committed = false;
    fs.Checkpoint([&] { committed = true; });
    rig.loop.Run();
    ASSERT_TRUE(committed);

    Rng rng(606);
    for (int op = 0; op < 40; ++op) {
      InodeNo ino = files[rng.Uniform(files.size())];
      fs.Write(ino, rng.Uniform(8) * kPageSize, kPageSize, IoClass::kBestEffort,
               nullptr);
      rig.loop.RunUntil(rig.loop.now() + Millis(1));
      if (op % 10 == 9) {
        fs.Sync([] {});  // grow the synced log tail past the checkpoint
      }
    }
    rig.loop.RunUntil(rig.loop.now() + Millis(5));
    rig.device.CrashFreeze();
  }

  image.Thaw();
  SimRig rig(32'768, Micros(50));
  LogFs fs(&rig.loop, &rig.device, /*cache_pages=*/128, /*segment_blocks=*/64);
  fs.AttachDurableImage(&image);
  MountReport report;
  bool mounted = false;
  fs.Mount([&](const MountReport& r) {
    report = r;
    mounted = true;
  });
  rig.loop.Run();
  ASSERT_TRUE(mounted);
  ASSERT_TRUE(report.status.ok()) << report.status.message();
  EXPECT_GT(report.blocks_replayed, 0u);  // the synced tail rolled forward
  FsckReport fsck = fs.CheckConsistency();
  EXPECT_EQ(fsck.structural_errors, 0u) << "first bad block " << fsck.first_bad_block;
  EXPECT_EQ(fsck.checksum_errors, 0u);
  CheckLogFsInvariants(fs);

  Rng rng(707);
  std::vector<InodeNo> files;
  fs.ns().ForEachInode([&](const Inode& inode) {
    if (!inode.is_dir()) {
      files.push_back(inode.ino);
    }
  });
  ASSERT_EQ(files.size(), 12u);
  for (int op = 0; op < 40; ++op) {
    InodeNo ino = files[rng.Uniform(files.size())];
    fs.Write(ino, rng.Uniform(8) * kPageSize, kPageSize, IoClass::kBestEffort,
             nullptr);
    rig.loop.RunUntil(rig.loop.now() + Millis(2));
  }
  fs.writeback().Sync(nullptr);
  rig.loop.Run();
  EXPECT_EQ(fs.cache().DirtyCount(), 0u);
  CheckLogFsInvariants(fs);

  bool committed = false;
  fs.Checkpoint([&] { committed = true; });
  rig.loop.Run();
  EXPECT_TRUE(committed);
}

TEST(IntegrationStackTest, DeterministicEndToEnd) {
  // The same seed must produce bit-identical stack state.
  auto run = [](uint64_t seed) {
    Rng rng(seed);
    SimRig rig(200'000, Micros(50));
    CowFs fs(&rig.loop, &rig.device, 128);
    DuetCore duet(&fs);
    SessionId sid = *duet.RegisterBlockTask(kDuetPageExists);
    std::vector<InodeNo> files;
    for (int i = 0; i < 10; ++i) {
      files.push_back(*fs.PopulateFile(StrFormat("/f%d", i), 8 * kPageSize));
    }
    for (int op = 0; op < 100; ++op) {
      InodeNo ino = files[rng.Uniform(files.size())];
      if (rng.Chance(0.5)) {
        fs.Read(ino, 0, 8 * kPageSize, IoClass::kBestEffort, nullptr);
      } else {
        fs.Write(ino, 0, 2 * kPageSize, IoClass::kBestEffort, nullptr);
      }
      rig.loop.RunUntil(rig.loop.now() + Millis(5));
    }
    auto items = duet.Fetch(sid, 1 << 20);
    uint64_t signature = rig.loop.now() ^ (items.ok() ? items->size() : 0) ^
                         fs.allocated_blocks() ^ fs.cache().PageCount() ^
                         rig.obs.metrics.CounterValue("duet.hooks");
    return signature;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // different seeds diverge
}

}  // namespace
}  // namespace duet
