#include "src/block/durable_image.h"

#include <cassert>

namespace duet {

uint64_t DurableImage::Commit(BlockNo block, uint64_t token, uint32_t csum,
                              InodeNo ino, PageIdx idx) {
  assert(block < records_.size());
  if (frozen_) {
    return commit_seq_;
  }
  Record& r = records_[block];
  r.token = token;
  r.csum = csum;
  r.ino = ino;
  r.idx = idx;
  r.seq = ++commit_seq_;
  r.present = true;
  return r.seq;
}

void DurableImage::TearToken(BlockNo block) {
  assert(block < records_.size());
  if (records_[block].present) {
    records_[block].token ^= 0xdeadbeefcafef00dULL;
  }
}

void DurableImage::ForEachPresent(
    const std::function<void(BlockNo, const Record&)>& fn) const {
  for (BlockNo b = 0; b < records_.size(); ++b) {
    if (records_[b].present) {
      fn(b, records_[b]);
    }
  }
}

void DurableImage::PutMeta(const std::string& key, std::vector<uint8_t> blob) {
  if (frozen_) {
    return;
  }
  meta_[key] = std::move(blob);
}

const std::vector<uint8_t>* DurableImage::GetMeta(const std::string& key) const {
  auto it = meta_.find(key);
  return it == meta_.end() ? nullptr : &it->second;
}

}  // namespace duet
