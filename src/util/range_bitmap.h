// Sparse bitmap backed by demand-allocated fixed-size chunks.
//
// The Duet paper (§4.2) allocates "portions of the relevant and done
// bitmaps" on demand, "to represent ranges that have marked bits", and
// deallocates them "when all their bits are unmarked". It finds those
// portions through a red-black tree. Here a dense directory of chunk
// pointers takes the tree's place, in the two-level layout ChunkedByteMap
// uses: chunk indices are dense (bit / kChunkBits, bounded by the device's
// blocks or the namespace's inodes), so a lookup is one array load and
// Test one indirection, where the tree cost a search on every page event.
// The memory behaviour is the paper's: a chunk exists only while it holds
// a set bit, and the directory (8 B per 32768 bits covered) exists only
// while some chunk does. Memory is reported so the §6.4 memory-overhead
// experiment can be reproduced.
#ifndef SRC_UTIL_RANGE_BITMAP_H_
#define SRC_UTIL_RANGE_BITMAP_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace duet {

class RangeBitmap {
 public:
  // Bits covered per allocated chunk. 32768 bits = 4 KiB of payload per
  // chunk, matching the granularity a kernel implementation would allocate.
  static constexpr uint64_t kChunkBits = 32768;

  RangeBitmap() = default;
  // `num_bits` is the logical size of the bitmap (e.g. blocks on the device
  // or inodes in the file system). All bits start unset.
  explicit RangeBitmap(uint64_t num_bits) : num_bits_(num_bits) {}

  uint64_t size() const { return num_bits_; }
  void Resize(uint64_t num_bits);

  // Inline where the bit's chunk exists: Duet sets a done bit per block a
  // scrubber verifies, and tests one on every page event it routes.
  void Set(uint64_t bit) {
    assert(bit < num_bits_);
    const uint64_t ci = bit / kChunkBits;
    Chunk* chunk = ci < chunks_.size() ? chunks_[ci].get() : nullptr;
    if (chunk == nullptr) {
      SetInNewChunk(bit);
    } else if (chunk->Set(bit % kChunkBits)) {
      ++set_count_;
    }
  }
  void Clear(uint64_t bit);
  bool Test(uint64_t bit) const {
    assert(bit < num_bits_);
    const uint64_t ci = bit / kChunkBits;
    const Chunk* chunk = ci < chunks_.size() ? chunks_[ci].get() : nullptr;
    return chunk != nullptr && chunk->Test(bit % kChunkBits);
  }

  void SetRange(uint64_t begin, uint64_t end);
  void ClearRange(uint64_t begin, uint64_t end);

  uint64_t Count() const { return set_count_; }

  // First set bit at or after `from`, or nullopt. Skips unallocated chunks.
  std::optional<uint64_t> FindNextSet(uint64_t from) const;

  // Drops every chunk and the directory; all bits become unset.
  void Reset();

  // Number of currently allocated chunks, and the exact heap footprint of
  // the chunks plus the directory.
  uint64_t chunk_count() const { return live_chunks_; }
  uint64_t MemoryBytes() const {
    return live_chunks_ * sizeof(Chunk) +
           chunks_.capacity() * sizeof(std::unique_ptr<Chunk>);
  }

 private:
  struct Chunk {
    static constexpr uint64_t kWords = kChunkBits / 64;
    uint64_t set = 0;  // set bits in this chunk
    uint64_t words[kWords] = {};

    bool Test(uint64_t off) const { return (words[off / 64] >> (off % 64)) & 1; }
    // Sets bit `off`; false if it was set already.
    bool Set(uint64_t off) {
      const uint64_t mask = uint64_t{1} << (off % 64);
      if ((words[off / 64] & mask) != 0) {
        return false;
      }
      words[off / 64] |= mask;
      ++set;
      return true;
    }
    // Sets or clears [lo, hi) and returns how many bits changed.
    uint64_t SetRange(uint64_t lo, uint64_t hi);
    uint64_t ClearRange(uint64_t lo, uint64_t hi);
  };

  // The chunk holding chunk index `ci`, allocated (and the directory grown)
  // on demand.
  Chunk& ChunkAt(uint64_t ci);
  // Set's slow path: allocates the chunk of `bit`, then sets it.
  void SetInNewChunk(uint64_t bit);
  // Frees chunk `ci` if it holds no set bit, and the directory with the
  // last chunk.
  void MaybeFree(uint64_t ci);

  uint64_t num_bits_ = 0;
  uint64_t set_count_ = 0;
  uint64_t live_chunks_ = 0;
  // Chunk index (bit / kChunkBits) -> chunk, null where no bit is set.
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace duet

#endif  // SRC_UTIL_RANGE_BITMAP_H_
