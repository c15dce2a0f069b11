// ChunkedByteMap: a two-level, demand-allocated byte array.
//
// This is the byte-granularity sibling of RangeBitmap (the paper's §4.2
// dynamically-allocated bitmap structure): level 1 is a dense directory of
// chunk pointers, level 2 is fixed 4 KiB chunks allocated on first write to
// their range and freed as soon as every byte in them returns to zero.
// Reads of unallocated ranges return 0; access is O(1) (one indirection).
//
// Duet uses one of these per session to hold the per-page notification flag
// byte (four pending-event bits + reported-state/queued bookkeeping), keyed
// by the page's descriptor-arena slot — the simulator's stand-in for the
// kernel's global page number. Memory is reported exactly so the §6.4
// memory-overhead experiment stays honest.
#ifndef SRC_UTIL_CHUNKED_BYTES_H_
#define SRC_UTIL_CHUNKED_BYTES_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace duet {

class ChunkedByteMap {
 public:
  // 4096 payload bytes per chunk, matching the allocation granularity a
  // kernel implementation would use (and RangeBitmap's 32768-bit chunks).
  static constexpr uint64_t kChunkBytes = 4096;

  ChunkedByteMap() = default;

  // Returns the byte at `index` (0 when its chunk was never written).
  uint8_t Get(uint64_t index) const {
    uint64_t ci = index / kChunkBytes;
    if (ci >= chunks_.size() || chunks_[ci] == nullptr) {
      return 0;
    }
    return chunks_[ci]->bytes[index % kChunkBytes];
  }

  // Sets the byte at `index`, allocating its chunk on demand and freeing the
  // chunk when its last nonzero byte is cleared. Inline: the Duet hook path
  // updates one flag byte per delivered event.
  void Set(uint64_t index, uint8_t value) {
    uint64_t ci = index / kChunkBytes;
    uint64_t off = index % kChunkBytes;
    if (ci >= chunks_.size()) {
      if (value == 0) {
        return;  // clearing an unallocated byte is a no-op
      }
      chunks_.resize(ci + 1);
    }
    Chunk* chunk = chunks_[ci].get();
    if (chunk == nullptr) {
      if (value == 0) {
        return;
      }
      chunks_[ci] = std::make_unique<Chunk>();
      chunk = chunks_[ci].get();
      ++live_chunks_;
    }
    uint8_t& byte = chunk->bytes[off];
    if (byte == 0 && value != 0) {
      ++chunk->nonzero;
    } else if (byte != 0 && value == 0) {
      --chunk->nonzero;
    }
    byte = value;
    if (chunk->nonzero == 0 && value == 0) {
      chunks_[ci].reset();
      --live_chunks_;
    }
  }

  // Drops every chunk; all bytes become 0.
  void Reset();

  uint64_t chunk_count() const { return live_chunks_; }

  // Exact heap footprint: allocated chunks plus the directory.
  uint64_t MemoryBytes() const {
    return live_chunks_ * sizeof(Chunk) +
           chunks_.capacity() * sizeof(std::unique_ptr<Chunk>);
  }

 private:
  struct Chunk {
    uint32_t nonzero = 0;  // bytes in this chunk with a nonzero value
    uint8_t bytes[kChunkBytes] = {};
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  uint64_t live_chunks_ = 0;
};

}  // namespace duet

#endif  // SRC_UTIL_CHUNKED_BYTES_H_
