#include "src/fs/file_system.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/fault/fault_injector.h"
#include "src/fs/meta_codec.h"
#include "src/util/crc32c.h"

namespace duet {

FileSystem::FileSystem(EventLoop* loop, BlockDevice* device, uint64_t cache_pages,
                       WritebackParams wb_params, std::string checkpoint_slot)
    : rmap_(device->capacity_blocks()),
      disk_data_(device->capacity_blocks(), 0),
      // A fresh device holds token 0 everywhere; checksums must agree, or
      // every allocated-but-never-flushed block would read as corrupt.
      disk_csum_(device->capacity_blocks(), TokenChecksum(0)),
      loop_(loop),
      device_(device),
      obs_(&loop->obs()),
      cache_(cache_pages, loop),
      writeback_(loop, &cache_, this, wb_params),
      in_use_(device->capacity_blocks()),
      pinned_(device->capacity_blocks()),
      allocatable_words_(ComputeAllocatableWords()),
      checkpoint_slot_(std::move(checkpoint_slot)) {
  assert(loop_ != nullptr && device_ != nullptr);
  writeback_.Start();
}

uint32_t FileSystem::TokenChecksum(uint64_t token) {
  return Crc32c(&token, sizeof(token));
}

bool FileSystem::BlockChecksumOk(BlockNo block) const {
  return disk_csum_[block] == TokenChecksum(disk_data_[block]);
}

Status FileSystem::VerifyBlock(BlockNo block) {
  if (in_use_.Test(block) && !BlockChecksumOk(block)) {
    ++checksum_errors_detected_;
    if (injector_ != nullptr) {
      injector_->NoteCorruptionDetected(block);
    }
    return Status(StatusCode::kCorruption, "checksum mismatch");
  }
  return Status::Ok();
}

void FileSystem::MarkFree(BlockNo block) {
  in_use_.Clear(block);
  if (!pinned_.Test(block)) {
    allocatable_words_.Set(block / 64);
  }
  --allocated_blocks_;
  rmap_[block] = RmapEntry{};
  if (injector_ != nullptr) {
    // A freed block's fault can no longer serve corrupt data to a reader.
    injector_->OnBlockFreed(block);
  }
}

void FileSystem::PinAllInUse() {
  pinned_ = in_use_;
  allocatable_words_ = ComputeAllocatableWords();
}

Bitmap FileSystem::ComputeAllocatableWords() const {
  const uint64_t words = (in_use_.size() + 63) / 64;
  Bitmap allocatable(words);
  for (uint64_t w = 0; w < words; ++w) {
    if (TakenWord(w) != ~uint64_t{0}) {
      allocatable.Set(w);
    }
  }
  return allocatable;
}

std::optional<BlockNo> FileSystem::NextAllocatable(BlockNo from) const {
  if (from >= capacity_blocks()) {
    return std::nullopt;
  }
  uint64_t w = from / 64;
  uint64_t free = ~TakenWord(w) & (~uint64_t{0} << (from % 64));
  if (free == 0) {
    std::optional<uint64_t> next = allocatable_words_.FindNextSet(w + 1);
    if (!next.has_value()) {
      return std::nullopt;
    }
    w = *next;
    free = ~TakenWord(w);
    assert(free != 0 && "allocatable index bit set on a full word");
  }
  return w * 64 + static_cast<uint64_t>(std::countr_zero(free));
}

uint64_t FileSystem::AllocatableRunLength(BlockNo start, uint64_t max) const {
  uint64_t length = 0;
  for (BlockNo b = start; length < max && b < capacity_blocks();) {
    // Bits past the device's end are taken, so a run stops there.
    const uint64_t offset = b % 64;
    const uint64_t run = std::min<uint64_t>(
        static_cast<uint64_t>(std::countr_zero(TakenWord(b / 64) >> offset)), 64 - offset);
    length += run;
    if (run < 64 - offset) {
      break;
    }
    b += run;
  }
  return std::min(length, max);
}

void FileSystem::MarkRunInUse(BlockNo start, uint64_t count) {
  assert(count > 0 && AllocatableRunLength(start, count) == count);
  in_use_.SetRange(start, start + count);
  allocated_blocks_ += count;
  for (uint64_t w = start / 64; w <= (start + count - 1) / 64; ++w) {
    if (TakenWord(w) == ~uint64_t{0}) {
      allocatable_words_.Clear(w);
    }
  }
}

void FileSystem::OnBlockFlushed(BlockNo block, uint64_t token) {
  disk_data_[block] = token;
  disk_csum_[block] = TokenChecksum(token);
}

void FileSystem::InjectCorruption(BlockNo block, bool /*both_copies*/) {
  disk_data_[block] ^= kCorruptionFlip;
  // The durable image models the same platter: rot that hits a committed
  // block must survive a crash and remount too.
  if (image_ != nullptr && image_->Present(block)) {
    image_->CorruptToken(block);
  }
}

void FileSystem::AttachFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  device_->SetFaultInjector(injector);
  if (injector != nullptr) {
    injector->SetCorruptionSink(
        [this](BlockNo block, bool both) { InjectCorruption(block, both); });
    injector->SetTargetFilter([this](BlockNo block) { return BlockInUse(block); });
  }
}

void FileSystem::AttachDurableImage(DurableImage* image) {
  image_ = image;
  device_->SetDurableImage(image);
  if (image != nullptr) {
    device_->SetDurableContentProvider([this](BlockNo block) {
      DurableContent content;
      content.token = disk_data_[block];
      content.csum = disk_csum_[block];
      content.ino = rmap_[block].ino;
      content.idx = rmap_[block].idx;
      content.in_use = BlockInUse(block);
      return content;
    });
  }
}

void FileSystem::Sync(std::function<void()> done) {
  writeback_.Sync([this, done = std::move(done)]() mutable {
    device_->Flush(IoClass::kBestEffort,
                   [done = std::move(done)](const IoResult&) { done(); });
  });
}

void FileSystem::SnapshotToDurable() {
  if (image_ == nullptr) {
    return;
  }
  for (BlockNo b = 0; b < capacity_blocks(); ++b) {
    if (BlockInUse(b)) {
      image_->Commit(b, disk_data_[b], disk_csum_[b], rmap_[b].ino, rmap_[b].idx);
    }
  }
}

void FileSystem::Checkpoint(std::function<void()> done) {
  assert(image_ != nullptr && "attach a durable image before checkpointing");
  Sync([this, done = std::move(done)]() mutable {
    // Quiesced commit: with no foreground writes racing the sync, the cache
    // is clean at the barrier, so the payload references only durably
    // committed blocks.
    assert(cache_.DirtyCount() == 0 && "quiesce writes during checkpoint");
    ByteWriter w;
    SerializeNamespaceAndMaps(&w);
    SerializeFsState(&w);
    std::vector<uint8_t> payload = w.Take();
    uint64_t generation = checkpoint_generation_ + 1;
    // Taken before `payload` moves into the commit below.
    SimDuration latency = MetaIoLatency(payload.size());
    // The checkpoint area is written FUA at the end of the modeled latency;
    // a crash inside the window simply leaves the previous generation (and
    // the image's PutMeta is a no-op once frozen anyway).
    loop_->ScheduleAfter(latency, [this, payload = std::move(payload), generation,
                                   done = std::move(done)] {
      CommitCheckpointSlot(image_, checkpoint_slot_, generation, payload);
      checkpoint_generation_ = generation;
      // Pin the committed tree until the next commit; logfs's prefree
      // segments become reusable here.
      PinAllInUse();
      obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFs,
                       obs::TraceKind::kCheckpointCommit, generation,
                       payload.size(), image_->commit_seq());
      done();
    });
  });
}

void FileSystem::Mount(std::function<void(const MountReport&)> cb) {
  assert(image_ != nullptr && "attach a durable image before mounting");
  assert(ns_.inode_count() == 1 && fmap_.empty() &&
         "mount requires a freshly constructed file system");
  SimTime started = loop_->now();
  auto report = std::make_shared<MountReport>();
  std::optional<LoadedCheckpoint> loaded = LoadNewestCheckpoint(*image_, checkpoint_slot_);
  std::vector<BlockNo> read_back;
  if (!loaded.has_value()) {
    report->status = Status(StatusCode::kNotFound, "no committed checkpoint");
  } else {
    report->generation = loaded->generation;
    report->meta_bytes = loaded->payload.size();
    ByteReader r(loaded->payload);
    report->status = RestoreNamespaceAndMaps(&r, &report->files)
                         ? RestoreFsState(&r, report.get(), &read_back)
                         : Status(StatusCode::kCorruption, "bad checkpoint namespace");
  }
  if (!report->status.ok()) {
    loop_->ScheduleAfter(0, [cb = std::move(cb), report] { cb(*report); });
    return;
  }
  checkpoint_generation_ = report->generation;

  auto finish = [this, report, cb = std::move(cb), started] {
    report->duration = loop_->now() - started;
    obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFs,
                     obs::TraceKind::kMountRecovered,
                     report->generation, report->blocks_restored,
                     report->blocks_discarded);
    cb(*report);
  };
  // Model the recovery I/O: read the checkpoint area, then read back what
  // the file system asked for (logfs: its replayed log tail, so recovery
  // latency scales with the post-checkpoint work the crash left behind).
  loop_->ScheduleAfter(MetaIoLatency(report->meta_bytes),
                       [this, read_back = std::move(read_back),
                        finish = std::move(finish)]() mutable {
    if (read_back.empty()) {
      finish();
      return;
    }
    ReadBlocks(std::move(read_back), IoClass::kBestEffort,
               [finish = std::move(finish)](const RawReadResult&) { finish(); });
  });
}

FsckReport FileSystem::CheckConsistency() const {
  FsckReport report;
  CheckFileMappings(&report);
  CheckFsState(&report);
  uint64_t in_use_count = 0;
  for (std::optional<BlockNo> b = in_use_.FindNextSet(0); b.has_value();
       b = in_use_.FindNextSet(*b + 1)) {
    ++in_use_count;
    ++report.blocks_checked;
    if (!BlockChecksumOk(*b)) {
      ++report.checksum_errors;
      report.NoteBad(*b);
    }
  }
  if (in_use_count != allocated_blocks_) {
    ++report.structural_errors;
  }
  // The allocatable index is derived state: rebuild it from the bitmaps.
  const Bitmap want = ComputeAllocatableWords();
  for (uint64_t w = 0; w < want.size(); ++w) {
    if (want.Test(w) != allocatable_words_.Test(w)) {
      ++report.structural_errors;
      if (!report.first_bad_index_word.has_value()) {
        report.first_bad_index_word = w;
      }
    }
  }
  obs_->trace.Emit(loop_->now(), obs::TraceLayer::kFs,
                   obs::TraceKind::kFsckRan,
                   report.structural_errors, report.checksum_errors,
                   report.blocks_checked);
  return report;
}

void FileSystem::LoadBlock(BlockNo block, MountReport* report) {
  if (image_->Present(block)) {
    const DurableImage::Record& rec = image_->At(block);
    disk_data_[block] = rec.token;
    disk_csum_[block] = rec.csum;
    ++report->blocks_restored;
  } else {
    ++report->blocks_missing;
  }
}

void FileSystem::SerializeNamespaceAndMaps(ByteWriter* w) const {
  std::vector<const Inode*> inodes;
  ns_.ForEachInode([&inodes](const Inode& inode) { inodes.push_back(&inode); });
  std::sort(inodes.begin(), inodes.end(),
            [](const Inode* a, const Inode* b) { return a->ino < b->ino; });
  w->U64(ns_.max_ino());
  w->U64(inodes.size());
  for (const Inode* inode : inodes) {
    w->U64(inode->ino);
    w->U8(inode->is_dir() ? 1 : 0);
    w->U64(inode->size);
    w->U64(inode->parent);
    w->Str(inode->name);
  }
  uint64_t maps = 0;
  ForEachFileMap([&maps](InodeNo, std::span<const BlockNo>) { ++maps; });
  w->U64(maps);
  ForEachFileMap([w](InodeNo ino, std::span<const BlockNo> blocks) {
    w->U64(ino);
    w->U64(blocks.size());
    for (BlockNo block : blocks) {
      w->U64(block);
    }
  });
}

bool FileSystem::RestoreNamespaceAndMaps(ByteReader* r, uint64_t* files_out) {
  InodeNo next_ino = r->U64();
  uint64_t inode_count = r->U64();
  uint64_t files = 0;
  for (uint64_t k = 0; k < inode_count && r->ok(); ++k) {
    InodeNo ino = r->U64();
    FileType type = r->U8() != 0 ? FileType::kDirectory : FileType::kRegular;
    uint64_t size = r->U64();
    InodeNo parent = r->U64();
    std::string name = r->Str();
    if (!r->ok()) {
      return false;
    }
    ns_.RestoreInode(ino, type, size, parent, std::move(name));
    if (type == FileType::kRegular) {
      ++files;
    }
  }
  if (!r->ok()) {
    return false;
  }
  ns_.RestoreLinks(next_ino);
  uint64_t map_count = r->U64();
  for (uint64_t k = 0; k < map_count && r->ok(); ++k) {
    InodeNo ino = r->U64();
    uint64_t nblocks = r->U64();
    for (PageIdx idx = 0; idx < nblocks; ++idx) {
      BlockNo block = r->U64();
      if (!r->ok() || (block != kInvalidBlock && block >= capacity_blocks())) {
        return false;
      }
      SetMapping(ino, idx, block);
    }
  }
  if (!r->ok()) {
    return false;
  }
  if (files_out != nullptr) {
    *files_out = files;
  }
  return true;
}

void FileSystem::CheckFileMappings(FsckReport* report) const {
  ForEachFileMap([this, report](InodeNo ino, std::span<const BlockNo>) {
    const Inode* inode = ns_.Get(ino);
    if (inode == nullptr || inode->is_dir()) {
      ++report->structural_errors;  // extent map for a nonexistent file
    }
  });
  ns_.ForEachInode([this, report](const Inode& inode) {
    if (inode.is_dir()) {
      return;
    }
    for (PageIdx p = 0; p < inode.PageCount(); ++p) {
      Result<BlockNo> block = Bmap(inode.ino, p);
      if (!block.ok()) {
        ++report->structural_errors;  // hole inside a live file
        continue;
      }
      if (!BlockInUse(*block) || rmap_[*block].ino != inode.ino ||
          rmap_[*block].idx != p) {
        ++report->structural_errors;
        report->NoteBad(*block);
      }
    }
  });
}

void FileSystem::SetMapping(InodeNo ino, PageIdx idx, BlockNo block) {
  // The owner goes first: SetOwner rejects an index past 2^32 before the
  // extent map grows to it.
  if (block != kInvalidBlock) {
    SetOwner(block, ino, idx);
  }
  std::vector<BlockNo>& blocks = MapFor(ino);
  if (blocks.size() <= idx) {
    blocks.resize(idx + 1, kInvalidBlock);
  }
  blocks[idx] = block;
}

FileSystem::RmapEntry FileSystem::OwnerEntry(InodeNo ino, PageIdx idx) {
  if (ino > UINT32_MAX || idx > UINT32_MAX) {
    fprintf(stderr,
            "file system: inode %llu page %llu is past the reverse map's 2^32 limit\n",
            static_cast<unsigned long long>(ino), static_cast<unsigned long long>(idx));
    std::abort();
  }
  return RmapEntry{static_cast<uint32_t>(ino), static_cast<uint32_t>(idx)};
}

uint64_t FileSystem::MetadataMemoryBytes() const {
  uint64_t bytes = rmap_.capacity() * sizeof(RmapEntry) +
                   disk_data_.capacity() * sizeof(uint64_t) +
                   disk_csum_.capacity() * sizeof(uint32_t);
  ForEachFileMap([&bytes](InodeNo, std::span<const BlockNo> blocks) {
    bytes += blocks.size() * sizeof(BlockNo);
  });
  return bytes;
}

Result<uint64_t> FileSystem::PageContent(InodeNo ino, PageIdx idx) const {
  if (const CachedPage* page = cache_.Peek(ino, idx)) {
    return page->data;
  }
  Result<BlockNo> block = Bmap(ino, idx);
  if (!block.ok()) {
    return block.status();
  }
  return disk_data_[*block];
}

Status FileSystem::DeleteFile(InodeNo ino) {
  const Inode* inode = ns_.Get(ino);
  if (inode == nullptr) {
    return Status(StatusCode::kNotFound);
  }
  if (inode->is_dir()) {
    return Status(StatusCode::kInvalidArgument, "is a directory");
  }
  cache_.RemoveInode(ino);
  FreeFileBlocks(ino);
  if (ino < fmap_.size()) {
    fmap_[ino] = FileMap{};  // releases the map's array
  }
  return ns_.Unlink(ino);
}

void FileSystem::FinishViaLoop(FsIoCallback cb, FsIoResult result) {
  if (!cb) {
    return;
  }
  loop_->ScheduleAfter(0, [cb = std::move(cb), result = std::move(result)] { cb(result); });
}

// Shared context for a multi-request read.
struct FileSystem::ReadJob {
  FsIoResult result;
  uint64_t outstanding = 0;
  bool submitted_all = false;
  FsIoCallback cb;
};

void FileSystem::Read(InodeNo ino, ByteOff off, uint64_t len, IoClass io_class,
                      FsIoCallback cb) {
  const Inode* inode = ns_.Get(ino);
  FsIoResult result;
  if (inode == nullptr || inode->is_dir()) {
    result.status = Status(StatusCode::kNotFound, "bad inode for read");
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  if (off >= inode->size || len == 0) {
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  len = std::min(len, inode->size - off);
  PageIdx first = off / kPageSize;
  PageIdx last = (off + len + kPageSize - 1) / kPageSize;  // exclusive

  // Classify pages: cache hits are free, misses become block reads.
  struct Miss {
    BlockNo block;
    InodeNo ino;
    PageIdx idx;
  };
  std::vector<Miss> misses;
  auto job = std::make_shared<ReadJob>();
  job->cb = std::move(cb);
  job->result.pages_requested = last - first;
  for (PageIdx p = first; p < last; ++p) {
    if (cache_.Lookup(ino, p).has_value()) {
      ++job->result.pages_from_cache;
      continue;
    }
    Result<BlockNo> block = Bmap(ino, p);
    if (!block.ok()) {
      job->result.status = Status(StatusCode::kCorruption, "hole in file");
      FinishViaLoop(std::move(job->cb), std::move(job->result));
      return;
    }
    misses.push_back(Miss{*block, ino, p});
  }
  if (misses.empty()) {
    FinishViaLoop(std::move(job->cb), std::move(job->result));
    return;
  }

  // Coalesce block-contiguous misses into device requests.
  std::sort(misses.begin(), misses.end(),
            [](const Miss& a, const Miss& b) { return a.block < b.block; });
  size_t i = 0;
  while (i < misses.size()) {
    size_t j = i + 1;
    while (j < misses.size() && misses[j].block == misses[j - 1].block + 1) {
      ++j;
    }
    std::vector<Miss> run(misses.begin() + static_cast<long>(i),
                          misses.begin() + static_cast<long>(j));
    IoRequest req;
    req.block = run.front().block;
    req.count = static_cast<uint32_t>(run.size());
    req.dir = IoDir::kRead;
    req.io_class = io_class;
    ++job->result.device_ops;
    ++job->outstanding;
    req.done = [this, job, run = std::move(run)](const IoResult& io) {
      bool whole_request_failed = !io.status.ok() && io.failed_blocks.empty();
      for (const Miss& m : run) {
        // A write may have raced this read: if the page gained a cache entry
        // while the read was in flight, that entry is newer than the disk
        // content the read carries. The fill must not clobber it (a dirty
        // entry holds data the disk has never seen), and a read failure must
        // not evict it.
        const CachedPage* raced = cache_.Peek(m.ino, m.idx);
        if (whole_request_failed || io.BlockFailed(m.block)) {
          // No data was transferred for this page. Invalidate a clean stale
          // copy so the cache cannot mask the failure.
          ++job->result.pages_failed;
          if (raced == nullptr || !raced->dirty) {
            cache_.Remove(m.ino, m.idx);
          }
          if (job->result.status.ok()) {
            job->result.status = io.status;
          }
          continue;
        }
        Status verify = VerifyBlock(m.block);
        if (!verify.ok()) {
          // Corrupt content must not enter the page cache: a later read
          // would be served the bad token with an OK status.
          ++job->result.pages_failed;
          if (raced == nullptr || !raced->dirty) {
            cache_.Remove(m.ino, m.idx);
          }
          if (job->result.status.ok()) {
            job->result.status = verify;
          }
          continue;
        }
        ++job->result.pages_from_disk;
        if (raced == nullptr) {
          cache_.Insert(m.ino, m.idx, disk_data_[m.block], /*dirty=*/false);
        }
      }
      if (--job->outstanding == 0 && job->submitted_all) {
        // Already async (device completion), deliver directly.
        if (job->cb) {
          job->cb(job->result);
        }
      }
    };
    device_->Submit(std::move(req));
    i = j;
  }
  job->submitted_all = true;
  if (job->outstanding == 0 && job->cb) {
    // All completions ran synchronously (not possible with a real device
    // model, but guard anyway).
    FinishViaLoop(std::move(job->cb), std::move(job->result));
  }
}

void FileSystem::Write(InodeNo ino, ByteOff off, uint64_t len, IoClass io_class,
                       FsIoCallback cb) {
  CopyIn(ino, off, len, {}, io_class, std::move(cb));
}

void FileSystem::CopyIn(InodeNo ino, ByteOff off, uint64_t len,
                        std::vector<uint64_t> tokens, IoClass /*io_class*/,
                        FsIoCallback cb) {
  Inode* inode = ns_.GetMutable(ino);
  FsIoResult result;
  if (inode == nullptr || inode->is_dir()) {
    result.status = Status(StatusCode::kNotFound, "bad inode for write");
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  if (len == 0) {
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  PageIdx first = off / kPageSize;
  PageIdx last = (off + len + kPageSize - 1) / kPageSize;  // exclusive
  assert(tokens.empty() || tokens.size() >= last - first);
  result.pages_requested = last - first;
  for (PageIdx p = first; p < last; ++p) {
    BlockNo old_block = kInvalidBlock;
    if (auto mapped = Bmap(ino, p); mapped.ok()) {
      old_block = *mapped;
    }
    Result<BlockNo> fresh = AllocateForWrite(ino, p, old_block);
    if (!fresh.ok()) {
      result.status = fresh.status();
      break;
    }
    uint64_t token = tokens.empty() ? NextToken() : tokens[p - first];
    if (!cache_.MarkDirty(ino, p, token)) {
      cache_.Insert(ino, p, token, /*dirty=*/true);
    }
  }
  if (result.status.ok()) {
    inode->size = std::max(inode->size, off + len);
  }
  writeback_.MaybeKick();
  FinishViaLoop(std::move(cb), std::move(result));
}

void FileSystem::Append(InodeNo ino, uint64_t len, IoClass io_class, FsIoCallback cb) {
  const Inode* inode = ns_.Get(ino);
  if (inode == nullptr) {
    FsIoResult result;
    result.status = Status(StatusCode::kNotFound);
    FinishViaLoop(std::move(cb), std::move(result));
    return;
  }
  Write(ino, inode->size, len, io_class, std::move(cb));
}

void FileSystem::ReadBlocks(std::vector<BlockNo> blocks, IoClass io_class,
                            std::function<void(const RawReadResult&)> cb) {
  auto result = std::make_shared<RawReadResult>();
  if (blocks.empty()) {
    loop_->ScheduleAfter(0, [cb = std::move(cb), result] { cb(*result); });
    return;
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  std::vector<std::pair<BlockNo, uint32_t>> runs;
  size_t i = 0;
  while (i < blocks.size()) {
    size_t j = i + 1;
    while (j < blocks.size() && blocks[j] == blocks[j - 1] + 1) {
      ++j;
    }
    runs.emplace_back(blocks[i], static_cast<uint32_t>(j - i));
    i = j;
  }
  auto outstanding = std::make_shared<uint64_t>(runs.size());
  auto cb_shared =
      std::make_shared<std::function<void(const RawReadResult&)>>(std::move(cb));
  for (const auto& [start, count] : runs) {
    IoRequest req;
    req.block = start;
    req.count = count;
    req.dir = IoDir::kRead;
    req.io_class = io_class;
    ++result->device_ops;
    req.done = [this, start = start, count = count, result, outstanding,
                cb_shared](const IoResult& io) {
      bool whole_request_failed = !io.status.ok() && io.failed_blocks.empty();
      for (BlockNo b = start; b < start + count; ++b) {
        if (whole_request_failed || io.BlockFailed(b)) {
          ++result->read_errors;
          result->bad_blocks.push_back(b);
          result->status = io.status;
          continue;
        }
        ++result->blocks_read;
        Status verify = VerifyBlock(b);
        if (!verify.ok()) {
          ++result->checksum_errors;
          result->bad_blocks.push_back(b);
          result->status = verify;
        }
      }
      if (--*outstanding == 0) {
        // Requests may complete out of submission order.
        std::sort(result->bad_blocks.begin(), result->bad_blocks.end());
        (*cb_shared)(*result);
      }
    };
    device_->Submit(std::move(req));
  }
}

void FileSystem::WritebackPages(std::vector<PageCache::DirtyPageRef> pages,
                                std::function<void()> done) {
  // Re-resolve current mappings and tokens: a page may have been re-written
  // (new COW/log location) since it was collected.
  struct Flush {
    BlockNo block;
    InodeNo ino;
    PageIdx idx;
    uint64_t token;
  };
  std::vector<Flush> flushes;
  flushes.reserve(pages.size());
  for (const auto& ref : pages) {
    const CachedPage* page = cache_.Peek(ref.ino, ref.idx);
    if (page == nullptr || !page->dirty) {
      continue;  // already gone or cleaned
    }
    Result<BlockNo> block = Bmap(ref.ino, ref.idx);
    if (!block.ok()) {
      continue;  // file deleted under us
    }
    flushes.push_back(Flush{*block, ref.ino, ref.idx, page->data});
  }
  if (flushes.empty()) {
    loop_->ScheduleAfter(0, std::move(done));
    return;
  }
  std::sort(flushes.begin(), flushes.end(),
            [](const Flush& a, const Flush& b) { return a.block < b.block; });

  auto outstanding = std::make_shared<uint64_t>(0);
  auto all_submitted = std::make_shared<bool>(false);
  auto done_shared = std::make_shared<std::function<void()>>(std::move(done));
  size_t i = 0;
  while (i < flushes.size()) {
    size_t j = i + 1;
    while (j < flushes.size() && flushes[j].block == flushes[j - 1].block + 1) {
      ++j;
    }
    std::vector<Flush> run(flushes.begin() + static_cast<long>(i),
                           flushes.begin() + static_cast<long>(j));
    IoRequest req;
    req.block = run.front().block;
    req.count = static_cast<uint32_t>(run.size());
    req.dir = IoDir::kWrite;
    // Flusher I/O is driven by foreground writes; it competes best-effort.
    req.io_class = IoClass::kBestEffort;
    ++*outstanding;
    req.done = [this, run = std::move(run), outstanding, all_submitted,
                done_shared](const IoResult&) {
      for (const Flush& f : run) {
        OnBlockFlushed(f.block, f.token);
        const CachedPage* page = cache_.Peek(f.ino, f.idx);
        // Only clean the page if it was not re-dirtied with new content
        // while the write was in flight.
        if (page != nullptr && page->dirty && page->data == f.token) {
          cache_.MarkClean(f.ino, f.idx);
        }
      }
      if (--*outstanding == 0 && *all_submitted && *done_shared) {
        (*done_shared)();
      }
    };
    device_->Submit(std::move(req));
    i = j;
  }
  *all_submitted = true;
  if (*outstanding == 0 && *done_shared) {
    loop_->ScheduleAfter(0, std::move(*done_shared));
  }
}

Result<InodeNo> FileSystem::PopulateFile(std::string_view path, uint64_t bytes) {
  return Populate(path, bytes, 0, nullptr);
}

Result<InodeNo> FileSystem::PopulateFileAged(std::string_view path, uint64_t bytes,
                                             double break_prob, Rng& rng) {
  return Populate(path, bytes, break_prob, &rng);
}

Result<InodeNo> FileSystem::Populate(std::string_view path, uint64_t bytes,
                                     double break_prob, Rng* rng) {
  Result<InodeNo> created = ns_.Create(path, FileType::kRegular);
  if (!created.ok()) {
    return created;
  }
  if (Status s = PopulatePages(*created, PagesForBytes(bytes), break_prob, rng); !s.ok()) {
    return s;
  }
  ns_.GetMutable(*created)->size = bytes;
  return created;
}

Status FileSystem::PopulatePages(InodeNo ino, uint64_t npages, double /*break_prob*/,
                                 Rng* /*rng*/) {
  for (PageIdx p = 0; p < npages; ++p) {
    Result<BlockNo> block = AllocateForWrite(ino, p, kInvalidBlock);
    if (!block.ok()) {
      return block.status();
    }
    OnBlockFlushed(*block, NextToken());  // content goes straight to "disk"
  }
  return Status::Ok();
}

}  // namespace duet
