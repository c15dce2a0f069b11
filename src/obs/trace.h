// Structured event trace for the simulation stack.
//
// Every layer emits typed TraceEvents (sim-time, layer, kind, payload) into
// the ambient Tracer. The Tracer folds each event into a streaming FNV-1a
// fingerprint — two runs can be compared for byte-identical event streams in
// O(1) memory — and forwards it to pluggable sinks: a bounded in-memory ring
// for tests and a JSONL file sink for `duetsim --trace`.
//
// Determinism contract: the trace must be a pure function of the simulation
// inputs (seeds and configuration). Only simulation-visible values may enter
// an event payload — sim-time, ids, block/inode numbers — never pointers,
// wall-clock time, or container iteration order of unordered containers.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace duet {
namespace obs {

// The layer that emitted an event (stable wire values; append only).
enum class TraceLayer : uint8_t {
  kSim = 0,
  kBlock = 1,
  kCache = 2,
  kDuet = 3,
  kTask = 4,
  kFault = 5,
  kWorkload = 6,
  kFs = 7,
};

// Event kinds across all layers (stable wire values; append only).
enum class TraceKind : uint8_t {
  // sim
  kEventScheduled = 0,   // a=event id, b=fire time
  kEventFired = 1,       // a=event id
  kEventCancelled = 2,   // a=event id
  // block
  kIoSubmit = 3,         // a=block, b=count, c=class<<1|dir
  kIoComplete = 4,       // a=block, b=count, c=status code
  // cache (Duet's four hook events, plus eviction)
  kPageAdded = 5,        // a=ino, b=page idx
  kPageRemoved = 6,      // a=ino, b=page idx
  kPageDirtied = 7,      // a=ino, b=page idx
  kPageFlushed = 8,      // a=ino, b=page idx
  kPageEvicted = 9,      // a=ino, b=page idx
  // duet
  kSessionRegistered = 10,    // a=session id, b=mask, c=is_block
  kSessionDeregistered = 11,  // a=session id
  kEventDelivered = 12,       // a=session id, b=ino, c=page idx
  kEventDropped = 13,         // a=session id, b=ino, c=page idx
  kItemFetched = 14,          // a=session id, b=item id, c=flags
  kDoneSet = 15,              // a=session id, b=item id
  kDoneUnset = 16,            // a=session id, b=item id
  // tasks
  kTaskStarted = 17,     // a=task tag
  kTaskFinished = 18,    // a=task tag, b=work done
  kChunkStarted = 19,    // a=task tag, b=start, c=count
  kChunkFinished = 20,   // a=task tag, b=start, c=count
  kRepair = 21,          // a=task tag, b=block, c=1 repaired / 0 unrecoverable
  kRetry = 22,           // a=task tag, b=start, c=attempt
  // fault
  kFaultInjected = 23,      // a=block, b=fault kind
  kFaultArmed = 24,         // a=block, b=fault kind
  kFaultDetected = 25,      // a=block
  kFaultRepaired = 26,      // a=block
  kFaultMasked = 27,        // a=block
  kFaultUnrecoverable = 28, // a=block
  // workload
  kOpIssued = 29,        // a=op kind, b=ino
  kOpCompleted = 30,     // a=op kind, b=latency us
  // crash consistency (block/fault/fs layers)
  kDeviceFlush = 31,        // a=blocks committed, b=image commit seq
  kCrashTriggered = 32,     // a=device ops dispatched, b=crash kind tag
  kCheckpointCommit = 33,   // a=generation, b=bytes, c=image commit seq
  kMountRecovered = 34,     // a=generation, b=blocks replayed, c=discarded
  kFsckRan = 35,            // a=structural errors, b=checksum errors
};

const char* TraceLayerName(TraceLayer layer);
const char* TraceKindName(TraceKind kind);

struct TraceEvent {
  SimTime at = 0;
  TraceLayer layer = TraceLayer::kSim;
  TraceKind kind = TraceKind::kEventScheduled;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;

  // One JSON object per event, schema documented in DESIGN.md §8.
  std::string ToJson() const;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnTraceEvent(const TraceEvent& event) = 0;
};

// Bounded in-memory ring: keeps the most recent `capacity` events and counts
// what it had to drop. The test-side sink.
class TraceRing : public TraceSink {
 public:
  explicit TraceRing(size_t capacity);

  void OnTraceEvent(const TraceEvent& event) override;

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  uint64_t total_seen() const { return total_seen_; }
  uint64_t dropped() const { return total_seen_ - size_; }
  // Oldest-first iteration over retained events.
  void ForEach(const std::function<void(const TraceEvent&)>& fn) const;
  // The i-th retained event, oldest first.
  const TraceEvent& at(size_t i) const;
  void Clear();

 private:
  size_t capacity_;
  size_t head_ = 0;  // next write position
  size_t size_ = 0;
  uint64_t total_seen_ = 0;
  std::vector<TraceEvent> events_;
};

// Writes one JSON line per event; owns the FILE handle.
class JsonlTraceSink : public TraceSink {
 public:
  // Returns nullptr if the file cannot be opened.
  static std::unique_ptr<JsonlTraceSink> Open(const std::string& path);
  ~JsonlTraceSink() override;

  void OnTraceEvent(const TraceEvent& event) override;
  uint64_t events_written() const { return events_written_; }

 private:
  explicit JsonlTraceSink(FILE* file) : file_(file) {}
  FILE* file_;
  uint64_t events_written_ = 0;
};

// Fan-out point: folds every event into the running FNV-1a fingerprint and
// forwards to registered sinks. Sinks are borrowed, not owned.
class Tracer {
 public:
  static constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
  static constexpr uint64_t kFnvPrime = 0x100000001b3ull;

  // Inline: Emit sits on the hook-dispatch hot path (several emits per
  // page-cache event); only the sink fan-out stays out of line.
  void Emit(SimTime at, TraceLayer layer, TraceKind kind, uint64_t a = 0,
            uint64_t b = 0, uint64_t c = 0) {
    ++events_emitted_;
    // Fold the event into the running fingerprint with ONE serial multiply
    // per event: the six fields are first mixed into a single word with
    // independent odd-constant multiplies (they have no data dependence, so
    // they issue in parallel), then FNV-chained into the accumulator. The
    // original byte-at-a-time FNV-1a put 48 dependent multiplies on the
    // hook-dispatch critical path; this keeps the same determinism contract
    // (identical streams <=> identical fingerprints, within one build) with
    // a ~2-cycle dependent chain per event.
    uint64_t x = at * 0x9e3779b97f4a7c15ull +
                 a * 0xbf58476d1ce4e5b9ull +
                 b * 0x94d049bb133111ebull +
                 c * 0x2545f4914f6cdd1dull +
                 ((static_cast<uint64_t>(layer) << 8) |
                  static_cast<uint64_t>(kind)) * 0xff51afd7ed558ccdull;
    fingerprint_ = (fingerprint_ ^ x) * kFnvPrime;
    if (!sinks_.empty()) {
      EmitToSinks(TraceEvent{at, layer, kind, a, b, c});
    }
  }

  void AddSink(TraceSink* sink);
  void RemoveSink(TraceSink* sink);

  // Streaming FNV-1a over every emitted event's serialized words. Identical
  // fingerprints <=> (with overwhelming probability) identical event streams.
  uint64_t Fingerprint() const { return fingerprint_; }
  uint64_t events_emitted() const { return events_emitted_; }

 private:
  void EmitToSinks(const TraceEvent& event);

  uint64_t fingerprint_ = kFnvOffset;
  uint64_t events_emitted_ = 0;
  std::vector<TraceSink*> sinks_;
};

}  // namespace obs
}  // namespace duet

#endif  // SRC_OBS_TRACE_H_
