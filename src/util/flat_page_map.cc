#include "src/util/flat_page_map.h"

#include <cassert>

namespace duet {

namespace {
constexpr size_t kMinCapacity = 16;
}  // namespace

void FlatPageMap::Grow() {
  size_t want = cells_.empty() ? kMinCapacity : cells_.size() * 2;
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(want, Cell{});
  mask_ = want - 1;
  size_ = 0;
  for (const Cell& c : old) {
    if (c.slot != kNoSlot) {
      Insert(c.hi, c.lo, c.slot);
    }
  }
}

}  // namespace duet
