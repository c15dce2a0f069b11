#include "src/util/range_bitmap.h"

#include <algorithm>
#include <bit>

namespace duet {

namespace {

// Bits [lo, hi) of 64-bit word `w`, for lo < hi within one chunk.
uint64_t WordMask(uint64_t w, uint64_t lo, uint64_t hi) {
  const uint64_t first = std::max(lo, w * 64) - w * 64;
  const uint64_t last = std::min(hi, w * 64 + 64) - w * 64;  // exclusive
  const uint64_t upper = last == 64 ? ~uint64_t{0} : (uint64_t{1} << last) - 1;
  return upper & (~uint64_t{0} << first);
}

}  // namespace

uint64_t RangeBitmap::Chunk::SetRange(uint64_t lo, uint64_t hi) {
  uint64_t changed = 0;
  for (uint64_t w = lo / 64; w * 64 < hi; ++w) {
    const uint64_t mask = WordMask(w, lo, hi);
    changed += static_cast<uint64_t>(std::popcount(mask & ~words[w]));
    words[w] |= mask;
  }
  set += changed;
  return changed;
}

uint64_t RangeBitmap::Chunk::ClearRange(uint64_t lo, uint64_t hi) {
  uint64_t changed = 0;
  for (uint64_t w = lo / 64; w * 64 < hi; ++w) {
    const uint64_t mask = WordMask(w, lo, hi);
    changed += static_cast<uint64_t>(std::popcount(mask & words[w]));
    words[w] &= ~mask;
  }
  set -= changed;
  return changed;
}

void RangeBitmap::Resize(uint64_t num_bits) {
  num_bits_ = num_bits;
  // Drop chunks that now lie entirely beyond the end.
  const uint64_t keep = (num_bits + kChunkBits - 1) / kChunkBits;
  for (uint64_t ci = keep; ci < chunks_.size(); ++ci) {
    if (chunks_[ci] != nullptr) {
      set_count_ -= chunks_[ci]->set;
      --live_chunks_;
    }
  }
  if (keep < chunks_.size()) {
    chunks_.resize(keep);
  }
  if (live_chunks_ == 0) {
    chunks_ = decltype(chunks_)();
  }
}

RangeBitmap::Chunk& RangeBitmap::ChunkAt(uint64_t ci) {
  if (ci >= chunks_.size()) {
    // Cover the whole logical size at once: the directory is small (8 B
    // per chunk) and an exact fit keeps MemoryBytes free of growth slack.
    chunks_.resize(std::max(ci + 1, (num_bits_ + kChunkBits - 1) / kChunkBits));
  }
  if (chunks_[ci] == nullptr) {
    chunks_[ci] = std::make_unique<Chunk>();
    ++live_chunks_;
  }
  return *chunks_[ci];
}

void RangeBitmap::MaybeFree(uint64_t ci) {
  if (chunks_[ci] == nullptr || chunks_[ci]->set != 0) {
    return;
  }
  chunks_[ci].reset();
  if (--live_chunks_ == 0) {
    chunks_ = decltype(chunks_)();
  }
}

void RangeBitmap::SetInNewChunk(uint64_t bit) {
  ChunkAt(bit / kChunkBits).Set(bit % kChunkBits);
  ++set_count_;
}

void RangeBitmap::Clear(uint64_t bit) {
  assert(bit < num_bits_);
  const uint64_t ci = bit / kChunkBits;
  Chunk* chunk = ci < chunks_.size() ? chunks_[ci].get() : nullptr;
  const uint64_t off = bit % kChunkBits;
  if (chunk == nullptr || !chunk->Test(off)) {
    return;
  }
  chunk->words[off / 64] &= ~(uint64_t{1} << (off % 64));
  --chunk->set;
  --set_count_;
  MaybeFree(ci);
}

void RangeBitmap::SetRange(uint64_t begin, uint64_t end) {
  assert(begin <= end && end <= num_bits_);
  while (begin < end) {
    const uint64_t ci = begin / kChunkBits;
    const uint64_t chunk_end = std::min(end, (ci + 1) * kChunkBits);
    set_count_ += ChunkAt(ci).SetRange(begin - ci * kChunkBits,
                                       chunk_end - ci * kChunkBits);
    begin = chunk_end;
  }
}

void RangeBitmap::ClearRange(uint64_t begin, uint64_t end) {
  assert(begin <= end && end <= num_bits_);
  while (begin < end && begin / kChunkBits < chunks_.size()) {
    const uint64_t ci = begin / kChunkBits;
    const uint64_t chunk_end = std::min(end, (ci + 1) * kChunkBits);
    if (chunks_[ci] != nullptr) {
      set_count_ -= chunks_[ci]->ClearRange(begin - ci * kChunkBits,
                                            chunk_end - ci * kChunkBits);
      // Freeing the last chunk releases the directory, which ends the loop.
      MaybeFree(ci);
    }
    begin = chunk_end;
  }
}

std::optional<uint64_t> RangeBitmap::FindNextSet(uint64_t from) const {
  if (from >= num_bits_) {
    return std::nullopt;
  }
  for (uint64_t ci = from / kChunkBits; ci < chunks_.size(); ++ci) {
    const Chunk* chunk = chunks_[ci].get();
    if (chunk == nullptr) {
      continue;
    }
    const uint64_t base = ci * kChunkBits;
    const uint64_t start = from > base ? from - base : 0;
    for (uint64_t w = start / 64; w < Chunk::kWords; ++w) {
      uint64_t word = chunk->words[w];
      if (w == start / 64) {
        word &= ~uint64_t{0} << (start % 64);
      }
      if (word != 0) {
        const uint64_t abs = base + w * 64 + static_cast<uint64_t>(std::countr_zero(word));
        return abs < num_bits_ ? std::optional<uint64_t>(abs) : std::nullopt;
      }
    }
  }
  return std::nullopt;
}

void RangeBitmap::Reset() {
  chunks_ = decltype(chunks_)();
  set_count_ = 0;
  live_chunks_ = 0;
}

}  // namespace duet
