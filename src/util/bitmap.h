// Dense fixed-size bitmap with word-at-a-time scan helpers.
#ifndef SRC_UTIL_BITMAP_H_
#define SRC_UTIL_BITMAP_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace duet {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(uint64_t num_bits);

  void Resize(uint64_t num_bits);

  uint64_t size() const { return num_bits_; }

  // Inline: the block store tests and flips one bit per block on every
  // allocation, free and verified read. A word holds 64 bits.
  void Set(uint64_t bit) {
    assert(bit < num_bits_);
    words_[bit / 64] |= uint64_t{1} << (bit % 64);
  }
  void Clear(uint64_t bit) {
    assert(bit < num_bits_);
    words_[bit / 64] &= ~(uint64_t{1} << (bit % 64));
  }
  bool Test(uint64_t bit) const {
    assert(bit < num_bits_);
    return (words_[bit / 64] >> (bit % 64)) & 1;
  }
  // Bits [64 * w, 64 * w + 64) as one word; bits past size() read 0.
  uint64_t Word(uint64_t w) const {
    assert(w < words_.size());
    return words_[w];
  }

  // Sets or clears [begin, end).
  void SetRange(uint64_t begin, uint64_t end);
  void ClearRange(uint64_t begin, uint64_t end);

  // Number of set bits in the whole bitmap.
  uint64_t Count() const;
  // Number of set bits in [begin, end).
  uint64_t CountRange(uint64_t begin, uint64_t end) const;

  // First set bit at or after `from`, or nullopt.
  std::optional<uint64_t> FindNextSet(uint64_t from) const;

  void Reset();  // clears every bit

  // Approximate heap usage in bytes (for the memory-overhead experiments).
  uint64_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  uint64_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace duet

#endif  // SRC_UTIL_BITMAP_H_
