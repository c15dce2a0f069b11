// Open-addressed hash index mapping a (inode, page-index) key to a 32-bit
// slot in a caller-owned arena.
//
// This is the flat replacement for the nested/std unordered maps that used
// to sit on the two hottest lookup paths (the page cache's page index and
// Duet's item-descriptor table): one contiguous cell array, linear probing,
// backward-shift deletion (no tombstones), and a power-of-two capacity kept
// at <= 70% load. A lookup is one hash plus a short linear scan of 24-byte
// cells — no per-node allocation, no bucket chains.
//
// The table stores only the key -> slot mapping; the arena entries
// themselves (descriptors, cached pages) live in packed vectors owned by the
// caller and are recycled through freelists. Iteration order over the table
// is never exposed: callers that need ordered traversal keep their own
// intrusive chains, which keeps every observable iteration deterministic.
#ifndef SRC_UTIL_FLAT_PAGE_MAP_H_
#define SRC_UTIL_FLAT_PAGE_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace duet {

class FlatPageMap {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  FlatPageMap() = default;

  // Returns the slot stored for (hi, lo), or kNoSlot. Defined inline: a
  // hook dispatch performs several probes and the call overhead across
  // translation units showed up as the single largest line in the hot-path
  // profile.
  uint32_t Find(uint64_t hi, uint64_t lo) const {
    if (cells_.empty()) {
      return kNoSlot;
    }
    const Cell* cells = cells_.data();
    uint64_t i = Hash(hi, lo) & mask_;
    while (true) {
      const Cell& c = cells[i];
      if (c.slot == kNoSlot) {
        return kNoSlot;
      }
      if (c.hi == hi && c.lo == lo) {
        return c.slot;
      }
      i = (i + 1) & mask_;
    }
  }

  // Inserts (hi, lo) -> slot. The key must not already be present.
  void Insert(uint64_t hi, uint64_t lo, uint32_t slot) {
    assert(slot != kNoSlot);
    if (cells_.empty() || (size_ + 1) * 10 > cells_.size() * 7) {
      Grow();
    }
    Cell* cells = cells_.data();
    uint64_t i = Hash(hi, lo) & mask_;
    while (cells[i].slot != kNoSlot) {
      assert(!(cells[i].hi == hi && cells[i].lo == lo));  // no duplicate keys
      i = (i + 1) & mask_;
    }
    cells[i] = Cell{hi, lo, slot};
    ++size_;
  }

  // Single-probe lookup-or-insert: returns the existing slot for (hi, lo),
  // or inserts `slot` and returns it. Callers that allocate an arena entry
  // speculatively (peek the freelist, commit only on insertion) use this to
  // halve the probes on the create path.
  uint32_t FindOrInsert(uint64_t hi, uint64_t lo, uint32_t slot) {
    assert(slot != kNoSlot);
    if (cells_.empty() || (size_ + 1) * 10 > cells_.size() * 7) {
      Grow();
    }
    Cell* cells = cells_.data();
    uint64_t i = Hash(hi, lo) & mask_;
    while (true) {
      Cell& c = cells[i];
      if (c.slot == kNoSlot) {
        c = Cell{hi, lo, slot};
        ++size_;
        return slot;
      }
      if (c.hi == hi && c.lo == lo) {
        return c.slot;
      }
      i = (i + 1) & mask_;
    }
  }

  // Removes (hi, lo). Returns the stored slot, or kNoSlot if absent.
  uint32_t Erase(uint64_t hi, uint64_t lo) {
    if (cells_.empty()) {
      return kNoSlot;
    }
    Cell* cells = cells_.data();
    uint64_t i = Hash(hi, lo) & mask_;
    while (true) {
      const Cell& c = cells[i];
      if (c.slot == kNoSlot) {
        return kNoSlot;
      }
      if (c.hi == hi && c.lo == lo) {
        break;
      }
      i = (i + 1) & mask_;
    }
    uint32_t slot = cells[i].slot;
    // Backward-shift deletion: close the probe chain so no tombstones
    // accumulate and lookups stay short under churn.
    uint64_t hole = i;
    uint64_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      Cell& c = cells[j];
      if (c.slot == kNoSlot) {
        break;
      }
      uint64_t home = Hash(c.hi, c.lo) & mask_;
      // Move c into the hole if its home position does not lie (cyclically)
      // strictly after the hole — i.e. probing from home would pass the hole.
      uint64_t dist_home_to_hole = (hole - home) & mask_;
      uint64_t dist_home_to_j = (j - home) & mask_;
      if (dist_home_to_hole <= dist_home_to_j) {
        cells[hole] = c;
        c.slot = kNoSlot;
        hole = j;
      }
    }
    cells[hole].slot = kNoSlot;
    --size_;
    return slot;
  }

  size_t size() const { return size_; }
  uint64_t MemoryBytes() const { return cells_.capacity() * sizeof(Cell); }

 private:
  struct Cell {
    uint64_t hi = 0;
    uint64_t lo = 0;
    uint32_t slot = kNoSlot;  // kNoSlot marks an empty cell
  };

  static uint64_t Hash(uint64_t hi, uint64_t lo) {
    // splitmix64-style mix of both words; the low bits must be well mixed
    // because the table masks rather than mods.
    uint64_t x = hi * 0x9e3779b97f4a7c15ULL + lo;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  void Grow();

  std::vector<Cell> cells_;
  size_t size_ = 0;
  uint64_t mask_ = 0;  // cells_.size() - 1; table is always a power of two
};

}  // namespace duet

#endif  // SRC_UTIL_FLAT_PAGE_MAP_H_
