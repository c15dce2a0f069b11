// Public Duet types: notification masks, fetched items, session ids.
//
// The flag field carries six notification bits, one per event and state
// notification type (paper Table 2 / §3.2): four page events plus the two
// state bits. For state subscribers, an item is returned when a page's net
// state changed since the last fetch, and the EXISTS/MODIFIED bits carry the
// page's *current* state.
#ifndef SRC_DUET_DUET_TYPES_H_
#define SRC_DUET_DUET_TYPES_H_

#include <cstdint>

#include "src/util/types.h"

namespace duet {

using SessionId = uint32_t;
inline constexpr SessionId kInvalidSession = ~0u;

// Notification mask / item flag bits.
inline constexpr uint8_t kDuetPageAdded = 1u << 0;
inline constexpr uint8_t kDuetPageRemoved = 1u << 1;
inline constexpr uint8_t kDuetPageDirtied = 1u << 2;
inline constexpr uint8_t kDuetPageFlushed = 1u << 3;
inline constexpr uint8_t kDuetPageExists = 1u << 4;    // state
inline constexpr uint8_t kDuetPageModified = 1u << 5;  // state

inline constexpr uint8_t kDuetEventMask =
    kDuetPageAdded | kDuetPageRemoved | kDuetPageDirtied | kDuetPageFlushed;
inline constexpr uint8_t kDuetStateMask = kDuetPageExists | kDuetPageModified;

// An item returned by duet_fetch (paper §3.2): for block tasks `id` is the
// block number and `offset` is 0; for file tasks `id` is the inode number
// and `offset` is the byte offset of the page within the file.
struct DuetItem {
  uint64_t id = 0;
  ByteOff offset = 0;
  uint8_t flags = 0;

  bool has(uint8_t bit) const { return (flags & bit) != 0; }
};

}  // namespace duet

#endif  // SRC_DUET_DUET_TYPES_H_
