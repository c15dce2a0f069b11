#include "src/util/chunked_bytes.h"

namespace duet {

void ChunkedByteMap::Reset() {
  chunks_.clear();
  live_chunks_ = 0;
}

}  // namespace duet
