#include "src/util/chunked_bytes.h"

namespace duet {

void ChunkedByteMap::SetInNewChunk(uint64_t index, uint8_t value) {
  const uint64_t ci = index / kChunkBytes;
  if (ci >= chunks_.size()) {
    chunks_.resize(ci + 1);
  }
  chunks_[ci] = std::make_unique<Chunk>();
  ++live_chunks_;
  chunks_[ci]->bytes[index % kChunkBytes] = value;
  chunks_[ci]->nonzero = 1;
}

void ChunkedByteMap::FreeChunk(uint64_t ci) {
  chunks_[ci].reset();
  --live_chunks_;
}

void ChunkedByteMap::Reset() {
  chunks_.clear();
  live_chunks_ = 0;
}

}  // namespace duet
