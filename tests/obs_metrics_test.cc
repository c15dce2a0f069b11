#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include "src/obs/obs.h"

namespace duet {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterRegistersOnceAndShares) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("cache.evictions");
  Counter* b = registry.GetCounter("cache.evictions");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);  // same name -> same handle
  a->Add();
  b->Add(4);
  EXPECT_EQ(registry.CounterValue("cache.evictions"), 5u);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(MetricsRegistryTest, AbsentCounterReadsZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("never.registered"), 0u);
  EXPECT_EQ(registry.FindCounter("never.registered"), nullptr);
}

// Registering a name under a second kind is a programming error: debug
// builds assert on it, release builds return nullptr.
#ifdef NDEBUG
TEST(MetricsRegistryTest, KindClashReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("block.submits"), nullptr);
  EXPECT_EQ(registry.GetGauge("block.submits"), nullptr);
  EXPECT_EQ(registry.GetHistogram("block.submits"), nullptr);
  EXPECT_EQ(registry.FindGauge("block.submits"), nullptr);
  // The original registration is untouched.
  EXPECT_NE(registry.FindCounter("block.submits"), nullptr);
}
#else
TEST(MetricsRegistryDeathTest, KindClashAssertsInDebugBuilds) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("block.submits"), nullptr);
  EXPECT_DEATH(registry.GetGauge("block.submits"), "kind");
  EXPECT_DEATH(registry.GetHistogram("block.submits"), "kind");
  // FindGauge only looks up, so a clash is a plain miss.
  EXPECT_EQ(registry.FindGauge("block.submits"), nullptr);
  EXPECT_NE(registry.FindCounter("block.submits"), nullptr);
}
#endif

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("cache.resident_pages");
  ASSERT_NE(g, nullptr);
  g->Set(100);
  g->Add(-25);
  EXPECT_EQ(g->value(), 75);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.GaugeValue("cache.resident_pages"), 75);
  EXPECT_EQ(snap.GaugeValue("missing.gauge"), 0);
}

TEST(LogHistogramTest, SingleSampleStats) {
  LogHistogram h;
  h.Record(100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 100.0);
  // All percentiles of a single sample are that sample (clamped to min/max).
  EXPECT_DOUBLE_EQ(h.P50(), 100.0);
  EXPECT_DOUBLE_EQ(h.P99(), 100.0);
}

TEST(LogHistogramTest, EmptyHistogramIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.P50(), 0.0);
}

TEST(LogHistogramTest, PercentilesAreOrderedAndBounded) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  double p50 = h.P50();
  double p95 = h.P95();
  double p99 = h.P99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, static_cast<double>(h.min()));
  EXPECT_LE(p99, static_cast<double>(h.max()));
  // Log2 bucketing bounds the error by the 2x bucket ratio.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
}

TEST(LogHistogramTest, ZeroSampleLandsInFirstBucket) {
  LogHistogram h;
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.P50(), 0.0);
}

TEST(MetricsRegistryTest, SnapshotCopiesScalars) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Add(7);
  registry.GetGauge("b.level")->Set(-3);
  registry.GetHistogram("c.latency")->Record(10);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("a.count"), 7u);
  EXPECT_EQ(snap.GaugeValue("b.level"), -3);
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.gauges.size(), 1u);
  // Mutations after the snapshot do not leak into the copy.
  registry.GetCounter("a.count")->Add(100);
  EXPECT_EQ(snap.Value("a.count"), 7u);
}

TEST(MetricsRegistryTest, DumpTextIsNameOrdered) {
  MetricsRegistry registry;
  registry.GetCounter("z.last")->Add(1);
  registry.GetCounter("a.first")->Add(2);
  registry.GetGauge("m.middle")->Set(3);
  std::string dump = registry.DumpText();
  size_t pos_a = dump.find("a.first");
  size_t pos_m = dump.find("m.middle");
  size_t pos_z = dump.find("z.last");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_m, std::string::npos);
  ASSERT_NE(pos_z, std::string::npos);
  EXPECT_LT(pos_a, pos_m);
  EXPECT_LT(pos_m, pos_z);
}

TEST(MetricsRegistryTest, DumpJsonMentionsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("x.count")->Add(1);
  registry.GetHistogram("y.latency")->Record(5);
  std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"x.count\""), std::string::npos);
  EXPECT_NE(json.find("\"y.latency\""), std::string::npos);
}

TEST(ObsContextTest, CurrentObsNeverNullAndScopesNest) {
  ObsContext* def = CurrentObs();
  ASSERT_NE(def, nullptr);
  ObsContext outer;
  {
    ObsScope outer_scope(&outer);
    EXPECT_EQ(CurrentObs(), &outer);
    ObsContext inner;
    {
      ObsScope inner_scope(&inner);
      EXPECT_EQ(CurrentObs(), &inner);
    }
    EXPECT_EQ(CurrentObs(), &outer);
  }
  EXPECT_EQ(CurrentObs(), def);
}

}  // namespace
}  // namespace obs
}  // namespace duet
