#include "src/util/stats.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace duet {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ConfidenceInterval95(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, ConfidenceIntervalShrinksWithSamples) {
  Rng rng(21);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10; ++i) {
    small.Add(rng.NextDouble());
  }
  for (int i = 0; i < 10000; ++i) {
    large.Add(rng.NextDouble());
  }
  EXPECT_GT(small.ConfidenceInterval95(), large.ConfidenceInterval95());
  EXPECT_NEAR(large.mean(), 0.5, 0.02);
}

}  // namespace
}  // namespace duet
