// Periodic dirty-page writeback, modeled on the kernel flusher threads:
// a periodic pass writes back pages that have been dirty longer than the
// expiry age, and a "kick" (called by the FS when the dirty ratio climbs)
// flushes regardless of age. The actual I/O is delegated to the file system,
// which maps pages to blocks, coalesces, and calls PageCache::MarkClean on
// completion (emitting the Flushed events Duet consumes).
#ifndef SRC_CACHE_WRITEBACK_H_
#define SRC_CACHE_WRITEBACK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/sim/event_loop.h"
#include "src/sim/time.h"

namespace duet {

// Implemented by the file-system layer.
class WritebackTarget {
 public:
  virtual ~WritebackTarget() = default;

  // Writes the given dirty pages to storage. Must invoke `done` once all
  // submitted I/O has completed (and pages have been marked clean).
  virtual void WritebackPages(std::vector<PageCache::DirtyPageRef> pages,
                              std::function<void()> done) = 0;
};

struct WritebackParams {
  SimDuration period = Seconds(5);        // flusher wake interval
  SimDuration dirty_expire = Seconds(10); // age before a periodic flush
  uint64_t batch_pages = 2048;            // max pages per pass
  double dirty_ratio = 0.20;              // Kick threshold (fraction of cache)
};

class Writeback : public PageEventListener {
 public:
  Writeback(EventLoop* loop, PageCache* cache, WritebackTarget* target,
            WritebackParams params = WritebackParams());
  ~Writeback() override;

  // Enables the periodic flusher. The tick timer is armed lazily: it runs
  // only while the cache holds dirty pages and disarms itself when the cache
  // is clean, so an idle simulation's event queue can drain.
  void Start();
  void Stop();

  // Called by the FS whenever pages become dirty; arms the tick timer.
  // Also invoked automatically via the cache's Dirtied hook.
  void NoteDirty();

  // PageEventListener: arms the tick timer on Dirtied events.
  void OnPageEvent(const PageEvent& event) override;

  // Called by the FS after writes; flushes immediately (ignoring age) when
  // the dirty ratio exceeds the threshold.
  void MaybeKick();

  // Forces a full flush of all dirty pages (age ignored), invoking `done`
  // when the cache has no dirty pages left. Used by sync-style operations
  // and test teardown.
  void Sync(std::function<void()> done);

  const WritebackParams& params() const { return params_; }

 private:
  void PeriodicTick();
  void RunPass(bool force, std::function<void()> after);

  EventLoop* loop_;
  PageCache* cache_;
  WritebackTarget* target_;
  WritebackParams params_;
  bool started_ = false;
  bool pass_in_flight_ = false;
  bool kick_pending_ = false;
  EventId tick_event_ = kInvalidEvent;
};

}  // namespace duet

#endif  // SRC_CACHE_WRITEBACK_H_
