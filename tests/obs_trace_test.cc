#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace duet {
namespace obs {
namespace {

TEST(TracerTest, FreshTracerHasOffsetFingerprint) {
  Tracer tracer;
  EXPECT_EQ(tracer.Fingerprint(), Tracer::kFnvOffset);
  EXPECT_EQ(tracer.events_emitted(), 0u);
}

TEST(TracerTest, IdenticalStreamsHaveIdenticalFingerprints) {
  Tracer a;
  Tracer b;
  for (uint64_t i = 0; i < 100; ++i) {
    a.Emit(i * 1000, TraceLayer::kCache, TraceKind::kPageAdded, 7, i, 0);
    b.Emit(i * 1000, TraceLayer::kCache, TraceKind::kPageAdded, 7, i, 0);
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.events_emitted(), 100u);
}

TEST(TracerTest, AnyFieldChangeDivergesFingerprint) {
  auto fingerprint_of = [](SimTime at, TraceLayer layer, TraceKind kind,
                           uint64_t a, uint64_t b, uint64_t c) {
    Tracer t;
    t.Emit(at, layer, kind, a, b, c);
    return t.Fingerprint();
  };
  uint64_t base = fingerprint_of(1, TraceLayer::kBlock, TraceKind::kIoSubmit, 2, 3, 4);
  EXPECT_NE(base, fingerprint_of(9, TraceLayer::kBlock, TraceKind::kIoSubmit, 2, 3, 4));
  EXPECT_NE(base, fingerprint_of(1, TraceLayer::kCache, TraceKind::kIoSubmit, 2, 3, 4));
  EXPECT_NE(base, fingerprint_of(1, TraceLayer::kBlock, TraceKind::kIoComplete, 2, 3, 4));
  EXPECT_NE(base, fingerprint_of(1, TraceLayer::kBlock, TraceKind::kIoSubmit, 0, 3, 4));
  EXPECT_NE(base, fingerprint_of(1, TraceLayer::kBlock, TraceKind::kIoSubmit, 2, 0, 4));
  EXPECT_NE(base, fingerprint_of(1, TraceLayer::kBlock, TraceKind::kIoSubmit, 2, 3, 0));
}

TEST(TracerTest, EventOrderMatters) {
  Tracer ab;
  ab.Emit(1, TraceLayer::kSim, TraceKind::kEventFired, 1);
  ab.Emit(2, TraceLayer::kSim, TraceKind::kEventFired, 2);
  Tracer ba;
  ba.Emit(2, TraceLayer::kSim, TraceKind::kEventFired, 2);
  ba.Emit(1, TraceLayer::kSim, TraceKind::kEventFired, 1);
  EXPECT_NE(ab.Fingerprint(), ba.Fingerprint());
}

TEST(TraceRingTest, RetainsMostRecentAndCountsDrops) {
  TraceRing ring(4);
  Tracer tracer;
  tracer.AddSink(&ring);
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.Emit(i, TraceLayer::kTask, TraceKind::kChunkFinished, i);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.total_seen(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Oldest-first iteration over the retained suffix 6..9.
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).a, 6 + i);
    EXPECT_EQ(ring.at(i).at, 6 + i);
  }
  uint64_t seen = 0;
  ring.ForEach([&](const TraceEvent& e) {
    EXPECT_EQ(e.a, 6 + seen);
    ++seen;
  });
  EXPECT_EQ(seen, 4u);
}

TEST(TraceRingTest, ClearResets) {
  TraceRing ring(2);
  Tracer tracer;
  tracer.AddSink(&ring);
  tracer.Emit(1, TraceLayer::kSim, TraceKind::kEventFired, 1);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_seen(), 0u);
}

TEST(TracerTest, RemoveSinkStopsDelivery) {
  TraceRing ring(8);
  Tracer tracer;
  tracer.AddSink(&ring);
  tracer.Emit(1, TraceLayer::kSim, TraceKind::kEventFired, 1);
  tracer.RemoveSink(&ring);
  tracer.Emit(2, TraceLayer::kSim, TraceKind::kEventFired, 2);
  EXPECT_EQ(ring.total_seen(), 1u);
  EXPECT_EQ(tracer.events_emitted(), 2u);
}

TEST(TraceEventTest, JsonUsesStableNames) {
  TraceEvent event{/*at=*/12, TraceLayer::kDuet, TraceKind::kItemFetched,
                   /*a=*/1, /*b=*/2, /*c=*/3};
  EXPECT_EQ(event.ToJson(),
            "{\"t\":12,\"layer\":\"duet\",\"kind\":\"item_fetched\","
            "\"a\":1,\"b\":2,\"c\":3}");
}

TEST(JsonlTraceSinkTest, WritesOneLinePerEvent) {
  std::string path = testing::TempDir() + "/obs_trace_test.jsonl";
  {
    auto sink = JsonlTraceSink::Open(path);
    ASSERT_NE(sink, nullptr);
    Tracer tracer;
    tracer.AddSink(sink.get());
    tracer.Emit(1, TraceLayer::kFault, TraceKind::kFaultInjected, 42, 1);
    tracer.Emit(2, TraceLayer::kFault, TraceKind::kFaultDetected, 42);
    EXPECT_EQ(sink->events_written(), 2u);
  }  // destructor closes the file
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line),
            "{\"t\":1,\"layer\":\"fault\",\"kind\":\"fault_injected\","
            "\"a\":42,\"b\":1,\"c\":0}\n");
  ASSERT_NE(fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(fgets(line, sizeof(line), f), nullptr);  // exactly two lines
  fclose(f);
  remove(path.c_str());
}

TEST(JsonlTraceSinkTest, UnopenablePathReturnsNull) {
  EXPECT_EQ(JsonlTraceSink::Open("/nonexistent-dir/trace.jsonl"), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace duet
