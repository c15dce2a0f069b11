#include "src/util/bitmap.h"

#include <bit>
#include <cassert>

namespace duet {

namespace {
constexpr uint64_t kWordBits = 64;

uint64_t WordCount(uint64_t bits) { return (bits + kWordBits - 1) / kWordBits; }

// Mask with bits [lo, hi) set within one word, 0 <= lo <= hi <= 64.
uint64_t RangeMask(uint64_t lo, uint64_t hi) {
  if (lo >= hi) {
    return 0;
  }
  uint64_t high = (hi == kWordBits) ? ~0ULL : ((1ULL << hi) - 1);
  uint64_t low = (1ULL << lo) - 1;
  return high & ~low;
}
}  // namespace

Bitmap::Bitmap(uint64_t num_bits) { Resize(num_bits); }

void Bitmap::Resize(uint64_t num_bits) {
  num_bits_ = num_bits;
  words_.assign(WordCount(num_bits), 0);
}

void Bitmap::SetRange(uint64_t begin, uint64_t end) {
  assert(begin <= end && end <= num_bits_);
  for (uint64_t w = begin / kWordBits; w <= (end ? (end - 1) / kWordBits : 0) && begin < end;
       ++w) {
    uint64_t lo = (w == begin / kWordBits) ? begin % kWordBits : 0;
    uint64_t hi = (w == (end - 1) / kWordBits) ? ((end - 1) % kWordBits) + 1 : kWordBits;
    words_[w] |= RangeMask(lo, hi);
  }
}

void Bitmap::ClearRange(uint64_t begin, uint64_t end) {
  assert(begin <= end && end <= num_bits_);
  for (uint64_t w = begin / kWordBits; w <= (end ? (end - 1) / kWordBits : 0) && begin < end;
       ++w) {
    uint64_t lo = (w == begin / kWordBits) ? begin % kWordBits : 0;
    uint64_t hi = (w == (end - 1) / kWordBits) ? ((end - 1) % kWordBits) + 1 : kWordBits;
    words_[w] &= ~RangeMask(lo, hi);
  }
}

uint64_t Bitmap::Count() const {
  uint64_t total = 0;
  for (uint64_t w : words_) {
    total += static_cast<uint64_t>(std::popcount(w));
  }
  return total;
}

uint64_t Bitmap::CountRange(uint64_t begin, uint64_t end) const {
  assert(begin <= end && end <= num_bits_);
  uint64_t total = 0;
  for (uint64_t w = begin / kWordBits; begin < end && w <= (end - 1) / kWordBits; ++w) {
    uint64_t lo = (w == begin / kWordBits) ? begin % kWordBits : 0;
    uint64_t hi = (w == (end - 1) / kWordBits) ? ((end - 1) % kWordBits) + 1 : kWordBits;
    total += static_cast<uint64_t>(std::popcount(words_[w] & RangeMask(lo, hi)));
  }
  return total;
}

std::optional<uint64_t> Bitmap::FindNextSet(uint64_t from) const {
  if (from >= num_bits_) {
    return std::nullopt;
  }
  uint64_t w = from / kWordBits;
  uint64_t word = words_[w] & ~((1ULL << (from % kWordBits)) - 1);
  while (true) {
    if (word != 0) {
      uint64_t bit = w * kWordBits + static_cast<uint64_t>(std::countr_zero(word));
      if (bit < num_bits_) {
        return bit;
      }
      return std::nullopt;
    }
    if (++w >= words_.size()) {
      return std::nullopt;
    }
    word = words_[w];
  }
}

void Bitmap::Reset() { words_.assign(words_.size(), 0); }

}  // namespace duet
