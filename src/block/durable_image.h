// The durable image: what the platter actually holds across a power loss.
//
// The simulated stack distinguishes three tiers of data:
//   * dirty pages in the page cache               — lost on crash;
//   * blocks written to the device but not yet    — lost on crash (they live
//     covered by a completed Flush() barrier         in the drive write cache);
//   * blocks committed by a Flush() barrier       — survive any crash.
// The DurableImage models the third tier. It is owned *outside* the
// simulated stack (by the harness), so it survives tearing down and
// rebuilding every in-memory object — exactly like a disk surviving a
// reboot. BlockDevice commits its volatile write set into the image when a
// flush op completes; a crash freezes the image as-is.
//
// Besides block records, the image holds named metadata regions (checkpoint
// slots, superblock generations, maintenance cursors). Writes to a region
// are atomic at the granularity of one Put — callers layer A/B slots with
// generation numbers and CRCs on top for torn-checkpoint tolerance.
#ifndef SRC_BLOCK_DURABLE_IMAGE_H_
#define SRC_BLOCK_DURABLE_IMAGE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/util/types.h"

namespace duet {

class DurableImage {
 public:
  // One committed block. `seq` is the global commit sequence number the block
  // was last committed at; roll-forward replay applies records in seq order.
  struct Record {
    uint64_t token = 0;
    uint32_t csum = 0;       // checksum stored alongside the data at commit
    InodeNo ino = kInvalidInode;  // owning page at commit time
    PageIdx idx = 0;
    uint64_t seq = 0;        // 0 = never committed
    bool present = false;
  };

  explicit DurableImage(uint64_t capacity_blocks)
      : records_(capacity_blocks) {}

  DurableImage(const DurableImage&) = delete;
  DurableImage& operator=(const DurableImage&) = delete;

  uint64_t capacity_blocks() const { return records_.size(); }

  // ---- Block commits (BlockDevice flush path) ----

  // Commits `block` with the given content under the next commit sequence
  // number. Returns the assigned seq.
  uint64_t Commit(BlockNo block, uint64_t token, uint32_t csum, InodeNo ino,
                  PageIdx idx);

  const Record& At(BlockNo block) const { return records_[block]; }
  bool Present(BlockNo block) const { return records_[block].present; }
  uint64_t commit_seq() const { return commit_seq_; }

  // A torn flush (crash mid-barrier) persisted garbage for this block: the
  // token is flipped but the stored csum is kept, so recovery's checksum
  // verification detects the tear and discards the record from replay.
  void TearToken(BlockNo block);
  // Bit rot reaching an already-durable block (fault injection).
  void CorruptToken(BlockNo block) { TearToken(block); }

  // Calls `fn` for every present record, ascending block order.
  void ForEachPresent(
      const std::function<void(BlockNo, const Record&)>& fn) const;

  // ---- Freeze (crash) ----
  // After Freeze(), further Commit/Put calls are ignored: the platter is
  // powered off. Thaw() re-enables writes for the recovered stack.
  void Freeze() { frozen_ = true; }
  void Thaw() { frozen_ = false; }

  // ---- Named metadata regions ----
  // Atomic replace of region `key`. Ignored while frozen.
  void PutMeta(const std::string& key, std::vector<uint8_t> blob);
  // nullptr if the region does not exist.
  const std::vector<uint8_t>* GetMeta(const std::string& key) const;

 private:
  std::vector<Record> records_;
  // Ordered map: iteration must be deterministic.
  std::map<std::string, std::vector<uint8_t>> meta_;
  uint64_t commit_seq_ = 0;
  bool frozen_ = false;
};

}  // namespace duet

#endif  // SRC_BLOCK_DURABLE_IMAGE_H_
