// Dense per-inode page index: maps (inode, page index) to a 32-bit slot in a
// caller-owned arena. It is the stack's one page index, shared by the page
// cache (slots of its entry arena) and Duet (slots of its descriptor arena).
//
// Pages are indexed as in the Linux address_space model: a vector indexed by
// inode number (dense and never reused, see Namespace) holds one record per
// inode, whose slot array is indexed by page number. A lookup is two array
// loads, with no hashing. An inode's slot array exists only while the inode
// has an indexed page and spans only its indexed page range, so the index
// follows the indexed set rather than the data: 4 B per page index between
// an inode's lowest and highest indexed page (up to twice that while the
// array has growth headroom), plus one record per inode number up to the
// highest indexed. Page indices must be below 2^32 (16 TiB into a file); a
// larger one aborts.
//
// Each record also carries a caller-defined `InodeData` (the page cache keeps
// the ends of its per-inode insertion-order chain there), reset with the
// record when the inode's last page leaves. There is one record per inode
// number, indexed or not, so it is packed: 16 B plus the InodeData.
#ifndef SRC_UTIL_PAGE_INDEX_H_
#define SRC_UTIL_PAGE_INDEX_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/util/types.h"

namespace duet {

// The InodeData of an index that keeps nothing per inode.
struct NoInodeData {};

template <typename InodeData = NoInodeData>
class PageIndex {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  // The slot recorded for (ino, idx), or kNoSlot.
  uint32_t Find(InodeNo ino, PageIdx idx) const {
    if (ino >= records_.size()) {
      return kNoSlot;
    }
    const Record& r = records_[ino];
    return r.Covers(idx) ? r.slots[idx - r.base] : kNoSlot;
  }

  // Records `slot` for a page that is not indexed. Returns the inode's data.
  InodeData& Insert(InodeNo ino, PageIdx idx, uint32_t slot) {
    assert(slot != kNoSlot);
    if (ino >= records_.size()) {
      records_.resize(ino + 1);
    }
    Record& r = records_[ino];
    if (!r.Covers(idx)) {
      GrowSlots(r, idx);
    }
    assert(r.slots[idx - r.base] == kNoSlot);
    r.slots[idx - r.base] = slot;
    assert(r.count < (1u << 26) - 1);
    ++r.count;
    return r.data;
  }

  // Removes an indexed page. When the inode's last page leaves, its record
  // is reset, releasing the slot array and resetting the InodeData: the
  // index then holds arrays only for inodes with an indexed page.
  void Erase(InodeNo ino, PageIdx idx) {
    assert(Find(ino, idx) != kNoSlot);
    Record& r = records_[ino];
    r.slots[idx - r.base] = kNoSlot;
    if (--r.count == 0) {
      if (r.nslots() == kMinSlots) {  // see spare_slots_
        spare_slots_ = std::move(r.slots);
      }
      r = Record{};
    }
  }

  // Number of indexed pages of `ino`.
  uint64_t Count(InodeNo ino) const {
    return ino < records_.size() ? records_[ino].count : 0;
  }

  // The inode's data: a default InodeData for an inode with no indexed page.
  const InodeData& DataOf(InodeNo ino) const {
    static constexpr InodeData kNone{};
    return ino < records_.size() ? records_[ino].data : kNone;
  }
  // Mutable access, for an inode that has an indexed page.
  InodeData& MutableDataOf(InodeNo ino) {
    assert(Count(ino) > 0);
    return records_[ino].data;
  }

  // Calls fn(ino, data) for every inode with an indexed page, inode numbers
  // ascending. fn must not change the index.
  template <typename Fn>
  void ForEachInode(Fn&& fn) const {
    for (InodeNo ino = 0; ino < records_.size(); ++ino) {
      if (records_[ino].count != 0) {
        fn(ino, records_[ino].data);
      }
    }
  }

  // Calls fn(idx, slot) for every indexed page of `ino`, page indices
  // ascending. The walk spans the inode's slot array, at most twice its
  // indexed page range. fn must not change the index.
  template <typename Fn>
  void ForEachOfInode(InodeNo ino, Fn&& fn) const {
    if (ino >= records_.size()) {
      return;
    }
    const Record& r = records_[ino];
    for (uint64_t i = 0; i < r.nslots(); ++i) {
      if (r.slots[i] != kNoSlot) {
        fn(PageIdx{r.base + i}, r.slots[i]);
      }
    }
  }

  // Heap bytes of the records (vector capacity) and of the live slot
  // arrays; once the index is empty, of the records alone. The one spare
  // array kept for reuse (kMinSlots entries, 32 B) is not counted.
  uint64_t MemoryBytes() const {
    uint64_t bytes = records_.capacity() * sizeof(Record);
    for (const Record& r : records_) {
      bytes += r.nslots() * sizeof(uint32_t);
    }
    return bytes;
  }

 private:
  // Length of a fresh slot array (32 B): a file of up to 8 pages is indexed
  // with one allocation. A power of two, like every slot array length.
  static constexpr uint64_t kMinSlots = 8;

  // One inode's pages: the caller's data, a count so Count is O(1), and the
  // slot array, which maps the page indices from `base` on to slots (kNoSlot
  // where the page is absent). The array is bare, of a power-of-two length
  // kept as its log2; the count has 26 bits and the base 32.
  struct Record {
    [[no_unique_address]] InodeData data;
    uint32_t count : 26 = 0;
    uint32_t log2_slots : 6 = 0;  // `slots` has 1 << log2_slots entries
    uint32_t base = 0;
    std::unique_ptr<uint32_t[]> slots;

    uint64_t nslots() const { return slots ? uint64_t{1} << log2_slots : 0; }
    // Unsigned wrap-around puts an index below `base` out of range too.
    bool Covers(PageIdx idx) const { return idx - base < nslots(); }
  };
  static_assert(sizeof(Record) ==
                    16 + (std::is_empty_v<InodeData> ? 0 : sizeof(InodeData)),
                "a record is 16 B plus the inode data");

  // Grows (or creates) `r`'s slot array to cover `idx`.
  void GrowSlots(Record& r, PageIdx idx) {
    if (idx > UINT32_MAX) {
      fprintf(stderr, "page index: page index %llu is past the index's 2^32-page limit\n",
              static_cast<unsigned long long>(idx));
      std::abort();
    }
    uint64_t base;
    uint64_t n;
    std::unique_ptr<uint32_t[]> grown;
    if (r.slots == nullptr) {
      // A fresh array, the spare if there is one: the aligned run of
      // kMinSlots that holds `idx`.
      base = idx - idx % kMinSlots;
      n = kMinSlots;
      grown = std::move(spare_slots_);
    } else {
      // Cover `idx`, at least doubling and extending toward it, so a run of
      // inserts in either direction reallocates only a logarithmic number
      // of times.
      uint64_t end = r.base + r.nslots();
      uint64_t lo = std::min<uint64_t>(idx, r.base);
      uint64_t hi = std::max(idx + 1, end);
      n = std::bit_ceil(std::max(hi - lo, 2 * r.nslots()));
      base = idx >= end ? lo : (hi > n ? hi - n : 0);
    }
    if (grown == nullptr) {
      grown = std::make_unique_for_overwrite<uint32_t[]>(n);
    }
    std::fill_n(grown.get(), n, kNoSlot);
    if (r.slots != nullptr) {
      std::copy_n(r.slots.get(), r.nslots(), grown.get() + (r.base - base));
    }
    r.slots = std::move(grown);
    r.log2_slots = std::countr_zero(n);
    r.base = static_cast<uint32_t>(base);
  }

  // Indexed by InodeNo; grows to the highest inode number ever indexed.
  std::vector<Record> records_;
  // A fresh-length slot array kept from the last inode that emptied, for the
  // next one that indexes a page: a page that comes and goes alone then
  // allocates nothing.
  std::unique_ptr<uint32_t[]> spare_slots_;
};

}  // namespace duet

#endif  // SRC_UTIL_PAGE_INDEX_H_
