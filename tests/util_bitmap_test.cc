#include "src/util/bitmap.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace duet {
namespace {

TEST(BitmapTest, StartsEmpty) {
  Bitmap bm(1000);
  EXPECT_EQ(bm.size(), 1000u);
  EXPECT_EQ(bm.Count(), 0u);
  EXPECT_EQ(bm.Count(), 0u);
  EXPECT_FALSE(bm.Test(0));
  EXPECT_FALSE(bm.Test(999));
}

TEST(BitmapTest, SetClearTest) {
  Bitmap bm(130);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(129);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(129));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_EQ(bm.Count(), 4u);
  bm.Clear(63);
  EXPECT_FALSE(bm.Test(63));
  EXPECT_EQ(bm.Count(), 3u);
}

TEST(BitmapTest, SetIsIdempotent) {
  Bitmap bm(10);
  bm.Set(5);
  bm.Set(5);
  EXPECT_EQ(bm.Count(), 1u);
  bm.Clear(5);
  bm.Clear(5);
  EXPECT_EQ(bm.Count(), 0u);
}

TEST(BitmapTest, SetRangeWithinWord) {
  Bitmap bm(64);
  bm.SetRange(3, 9);
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(bm.Test(i), i >= 3 && i < 9) << i;
  }
}

TEST(BitmapTest, SetRangeAcrossWords) {
  Bitmap bm(256);
  bm.SetRange(60, 200);
  EXPECT_EQ(bm.Count(), 140u);
  EXPECT_FALSE(bm.Test(59));
  EXPECT_TRUE(bm.Test(60));
  EXPECT_TRUE(bm.Test(199));
  EXPECT_FALSE(bm.Test(200));
}

TEST(BitmapTest, EmptyRangeIsNoop) {
  Bitmap bm(100);
  bm.SetRange(10, 10);
  EXPECT_EQ(bm.Count(), 0u);
  bm.SetRange(0, 100);
  bm.ClearRange(50, 50);
  EXPECT_EQ(bm.Count(), 100u);
}

TEST(BitmapTest, ClearRange) {
  Bitmap bm(256);
  bm.SetRange(0, 256);
  bm.ClearRange(100, 130);
  EXPECT_EQ(bm.Count(), 256u - 30u);
  EXPECT_TRUE(bm.Test(99));
  EXPECT_FALSE(bm.Test(100));
  EXPECT_FALSE(bm.Test(129));
  EXPECT_TRUE(bm.Test(130));
}

TEST(BitmapTest, CountRange) {
  Bitmap bm(300);
  bm.SetRange(10, 290);
  EXPECT_EQ(bm.CountRange(0, 300), 280u);
  EXPECT_EQ(bm.CountRange(0, 10), 0u);
  EXPECT_EQ(bm.CountRange(10, 11), 1u);
  EXPECT_EQ(bm.CountRange(100, 200), 100u);
  EXPECT_EQ(bm.CountRange(285, 300), 5u);
  EXPECT_EQ(bm.CountRange(150, 150), 0u);
}

TEST(BitmapTest, FindNextSet) {
  Bitmap bm(200);
  EXPECT_EQ(bm.FindNextSet(0), std::nullopt);
  bm.Set(5);
  bm.Set(70);
  bm.Set(199);
  EXPECT_EQ(bm.FindNextSet(0), 5u);
  EXPECT_EQ(bm.FindNextSet(5), 5u);
  EXPECT_EQ(bm.FindNextSet(6), 70u);
  EXPECT_EQ(bm.FindNextSet(71), 199u);
  EXPECT_EQ(bm.FindNextSet(200), std::nullopt);
}

TEST(BitmapTest, AllSetAllClear) {
  Bitmap bm(65);
  EXPECT_EQ(bm.Count(), 0u);
  bm.SetRange(0, 65);
  EXPECT_EQ(bm.Count(), 65u);
  bm.Clear(64);
  EXPECT_EQ(bm.Count(), 64u);
  bm.Reset();
  EXPECT_EQ(bm.Count(), 0u);
}

// Property test: random operations against a reference std::vector<bool>.
class BitmapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitmapPropertyTest, MatchesReferenceModel) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const uint64_t n = 1 + rng.Uniform(2000);
  Bitmap bm(n);
  std::vector<bool> ref(n, false);

  for (int step = 0; step < 500; ++step) {
    switch (rng.Uniform(5)) {
      case 0: {
        uint64_t b = rng.Uniform(n);
        bm.Set(b);
        ref[b] = true;
        break;
      }
      case 1: {
        uint64_t b = rng.Uniform(n);
        bm.Clear(b);
        ref[b] = false;
        break;
      }
      case 2: {
        uint64_t lo = rng.Uniform(n + 1);
        uint64_t hi = lo + rng.Uniform(n + 1 - lo);
        bm.SetRange(lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          ref[i] = true;
        }
        break;
      }
      case 3: {
        uint64_t lo = rng.Uniform(n + 1);
        uint64_t hi = lo + rng.Uniform(n + 1 - lo);
        bm.ClearRange(lo, hi);
        for (uint64_t i = lo; i < hi; ++i) {
          ref[i] = false;
        }
        break;
      }
      case 4: {
        uint64_t lo = rng.Uniform(n + 1);
        uint64_t hi = lo + rng.Uniform(n + 1 - lo);
        uint64_t expected = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          expected += ref[i] ? 1 : 0;
        }
        ASSERT_EQ(bm.CountRange(lo, hi), expected);
        break;
      }
    }
  }

  uint64_t expected_count = 0;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(bm.Test(i), ref[i]) << "bit " << i;
    expected_count += ref[i] ? 1 : 0;
  }
  EXPECT_EQ(bm.Count(), expected_count);

  // FindNextSet agrees with a linear scan from several anchors.
  for (uint64_t anchor = 0; anchor < n; anchor += 1 + n / 7) {
    std::optional<uint64_t> expected;
    for (uint64_t i = anchor; i < n; ++i) {
      if (ref[i]) {
        expected = i;
        break;
      }
    }
    EXPECT_EQ(bm.FindNextSet(anchor), expected) << "anchor " << anchor;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---- Word-boundary seams ----
// The word-at-a-time fast paths (SetRange/ClearRange/CountRange/FindNext*)
// switch between masked partial words and full-word operations exactly at
// multiples of 64; off-by-ones there silently corrupt neighbouring bits.

TEST(BitmapTest, SetClearAtEveryWordSeam) {
  Bitmap b(64 * 4 + 1);
  for (uint64_t seam = 64; seam <= 256; seam += 64) {
    for (int64_t d = -1; d <= 1; ++d) {
      uint64_t bit = seam + d;
      if (bit >= b.size()) continue;
      b.Set(bit);
      EXPECT_TRUE(b.Test(bit)) << bit;
    }
  }
  EXPECT_EQ(b.Count(), 3u * 3u + 2u);  // seams 64,128,192 full; 256 has -1,0
  for (uint64_t seam = 64; seam <= 256; seam += 64) {
    for (int64_t d = -1; d <= 1; ++d) {
      uint64_t bit = seam + d;
      if (bit >= b.size()) continue;
      b.Clear(bit);
      EXPECT_FALSE(b.Test(bit)) << bit;
    }
  }
  EXPECT_EQ(b.Count(), 0u);
}

TEST(BitmapTest, RangesHittingWordSeamsExactly) {
  // Every combination of begin/end landing on, just before, and just after a
  // word seam, checked against per-bit ground truth.
  const uint64_t kBits = 64 * 5;
  const uint64_t edges[] = {0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256, 319, 320};
  for (uint64_t begin : edges) {
    for (uint64_t end : edges) {
      if (end < begin) continue;
      Bitmap b(kBits);
      b.SetRange(begin, end);
      EXPECT_EQ(b.Count(), end - begin) << begin << ".." << end;
      for (uint64_t i = 0; i < kBits; ++i) {
        EXPECT_EQ(b.Test(i), i >= begin && i < end) << i;
      }
      EXPECT_EQ(b.CountRange(begin, end), end - begin);
      b.ClearRange(begin, end);
      EXPECT_EQ(b.Count(), 0u) << begin << ".." << end;
    }
  }
}

TEST(BitmapTest, FindNextAcrossWordSeams) {
  Bitmap b(64 * 4);
  b.Set(63);
  b.Set(64);
  b.Set(191);
  EXPECT_EQ(b.FindNextSet(0), std::optional<uint64_t>(63));
  EXPECT_EQ(b.FindNextSet(64), std::optional<uint64_t>(64));
  EXPECT_EQ(b.FindNextSet(65), std::optional<uint64_t>(191));
  EXPECT_EQ(b.FindNextSet(192), std::nullopt);
  Bitmap full(130);
  full.SetRange(0, 130);
  EXPECT_EQ(full.Word(1), ~uint64_t{0});
  EXPECT_EQ(full.Word(2), uint64_t{0b11});
  full.Clear(128);
  EXPECT_EQ(full.Word(2), uint64_t{0b10});
}

TEST(BitmapTest, NonWordMultipleSizeTailBitsStayClean) {
  // A size not divisible by 64 leaves slack bits in the last word; range and
  // scan operations must never observe them.
  Bitmap b(100);
  b.SetRange(0, 100);
  EXPECT_EQ(b.Count(), 100u);
  EXPECT_EQ(b.Word(1), (uint64_t{1} << 36) - 1);
  b.ClearRange(99, 100);
  EXPECT_EQ(b.Word(1), (uint64_t{1} << 35) - 1);
  EXPECT_EQ(b.FindNextSet(99), std::nullopt);
}

}  // namespace
}  // namespace duet
