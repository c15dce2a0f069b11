#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/util/zipf.h"

namespace duet {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  constexpr uint64_t kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.Uniform(kBuckets)];
  }
  for (uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, kSamples / kBuckets / 10.0);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(5);
  double sum = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.Exponential(4.0);
  }
  EXPECT_NEAR(sum / kSamples, 4.0, 0.1);
}

// The workload paces at several rates from one draw: ExponentialUniform then
// ExponentialFromUniform must give exactly what Exponential gives, and what
// the inline draw-and-transform it replaced gave, for every mean.
TEST(RngTest, SharedDrawReproducesExponentialBitForBit) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Rng whole(seed);
    Rng split(seed);
    Rng inline_draw(seed);
    for (int i = 0; i < 2000; ++i) {
      double rate = 0.1 + static_cast<double>((seed * 2000 + i) % 4000);
      double mean = i % 2 == 0 ? 1.0 / rate : 65536.0 * static_cast<double>(i + 1);
      double u = split.ExponentialUniform();
      double got = Rng::ExponentialFromUniform(mean, u);
      double reference = inline_draw.NextDouble();
      if (reference <= 0) {
        reference = 0x1.0p-53;
      }
      reference = -mean * std::log(reference);
      double want = whole.Exponential(mean);
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "seed " << seed << " draw " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(reference))
          << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngTest, ChanceMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    hits += rng.Chance(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / static_cast<double>(kSamples), 0.3, 0.01);
}

TEST(ZipfTest, UniformWhenExponentZero) {
  ZipfSampler zipf(100, 0.0);
  Rng rng(13);
  int counts[100] = {};
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (int k = 0; k < 100; ++k) {
    EXPECT_NEAR(counts[k], 1000, 250) << "rank " << k;
  }
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  ZipfSampler zipf(1000, 1.1);
  Rng rng(17);
  uint64_t top10 = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Sample(rng) < 10) {
      ++top10;
    }
  }
  // With s=1.1 over 1000 ranks, the top-1% of files should absorb far more
  // than 1% of accesses — the skew the paper's Fig. 1 shows for MS traces.
  EXPECT_GT(top10, kSamples / 3);
  EXPECT_NEAR(zipf.CumulativeProbability(10),
              static_cast<double>(top10) / kSamples, 0.02);
}

TEST(ZipfTest, CumulativeProbabilityMonotone) {
  ZipfSampler zipf(50, 0.8);
  double prev = 0;
  for (uint64_t k = 1; k <= 50; ++k) {
    double c = zipf.CumulativeProbability(k);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);
}

}  // namespace
}  // namespace duet
