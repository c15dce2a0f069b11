#include "src/util/range_bitmap.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "src/util/bitmap.h"
#include "src/util/rng.h"

namespace duet {
namespace {

constexpr uint64_t kChunk = RangeBitmap::kChunkBits;

TEST(RangeBitmapTest, StartsEmptyAndAllocatesNothing) {
  RangeBitmap bm(10 * kChunk);
  EXPECT_EQ(bm.Count(), 0u);
  EXPECT_EQ(bm.chunk_count(), 0u);
  EXPECT_EQ(bm.MemoryBytes(), 0u);
  EXPECT_FALSE(bm.Test(0));
  EXPECT_FALSE(bm.Test(10 * kChunk - 1));
}

TEST(RangeBitmapTest, SetAllocatesOneChunk) {
  RangeBitmap bm(10 * kChunk);
  bm.Set(5);
  EXPECT_TRUE(bm.Test(5));
  EXPECT_EQ(bm.Count(), 1u);
  EXPECT_EQ(bm.chunk_count(), 1u);
  EXPECT_GT(bm.MemoryBytes(), 0u);
}

TEST(RangeBitmapTest, ChunkFreedWhenAllBitsCleared) {
  // Mirrors §4.2: portions are deallocated when all their bits are unmarked.
  RangeBitmap bm(10 * kChunk);
  bm.Set(100);
  bm.Set(200);
  EXPECT_EQ(bm.chunk_count(), 1u);
  bm.Clear(100);
  EXPECT_EQ(bm.chunk_count(), 1u);
  bm.Clear(200);
  EXPECT_EQ(bm.chunk_count(), 0u);
  EXPECT_EQ(bm.MemoryBytes(), 0u);
}

TEST(RangeBitmapTest, SparseSetsUseSparseChunks) {
  RangeBitmap bm(100 * kChunk);
  bm.Set(0);
  bm.Set(50 * kChunk);
  bm.Set(99 * kChunk);
  EXPECT_EQ(bm.chunk_count(), 3u);
  EXPECT_EQ(bm.Count(), 3u);
}

TEST(RangeBitmapTest, ClearOnUnallocatedChunkIsNoop) {
  RangeBitmap bm(10 * kChunk);
  bm.Clear(12345);
  EXPECT_EQ(bm.Count(), 0u);
  EXPECT_EQ(bm.chunk_count(), 0u);
}

TEST(RangeBitmapTest, SetRangeSpanningChunks) {
  RangeBitmap bm(4 * kChunk);
  bm.SetRange(kChunk - 10, 2 * kChunk + 10);
  EXPECT_EQ(bm.Count(), kChunk + 20);
  EXPECT_EQ(bm.chunk_count(), 3u);
  EXPECT_FALSE(bm.Test(kChunk - 11));
  EXPECT_TRUE(bm.Test(kChunk - 10));
  EXPECT_TRUE(bm.Test(2 * kChunk + 9));
  EXPECT_FALSE(bm.Test(2 * kChunk + 10));
}

TEST(RangeBitmapTest, ClearRangeFreesEmptiedChunks) {
  RangeBitmap bm(4 * kChunk);
  bm.SetRange(0, 3 * kChunk);
  EXPECT_EQ(bm.chunk_count(), 3u);
  bm.ClearRange(0, 2 * kChunk);
  EXPECT_EQ(bm.chunk_count(), 1u);
  EXPECT_EQ(bm.Count(), kChunk);
}

TEST(RangeBitmapTest, FindNextSetSkipsUnallocatedChunks) {
  RangeBitmap bm(100 * kChunk);
  EXPECT_EQ(bm.FindNextSet(0), std::nullopt);
  bm.Set(70 * kChunk + 7);
  EXPECT_EQ(bm.FindNextSet(0), 70 * kChunk + 7);
  EXPECT_EQ(bm.FindNextSet(70 * kChunk + 7), 70 * kChunk + 7);
  EXPECT_EQ(bm.FindNextSet(70 * kChunk + 8), std::nullopt);
}

TEST(RangeBitmapTest, ResetDropsEverything) {
  RangeBitmap bm(10 * kChunk);
  bm.SetRange(0, 5 * kChunk);
  bm.Reset();
  EXPECT_EQ(bm.Count(), 0u);
  EXPECT_EQ(bm.chunk_count(), 0u);
}

TEST(RangeBitmapTest, ResizeDropsOutOfRangeChunks) {
  RangeBitmap bm(10 * kChunk);
  bm.Set(1);
  bm.Set(9 * kChunk + 1);
  bm.Resize(2 * kChunk);
  EXPECT_EQ(bm.Count(), 1u);
  EXPECT_TRUE(bm.Test(1));
}

TEST(RangeBitmapTest, ResizeDroppingEveryChunkReleasesTheDirectory) {
  RangeBitmap bm(10 * kChunk);
  bm.Set(9 * kChunk + 1);
  EXPECT_GT(bm.MemoryBytes(), 0u);
  bm.Resize(2 * kChunk);
  EXPECT_EQ(bm.Count(), 0u);
  EXPECT_EQ(bm.chunk_count(), 0u);
  EXPECT_EQ(bm.MemoryBytes(), 0u);
}

TEST(RangeBitmapTest, MemoryMatchesPaperScale) {
  // §6.4: for 50 GB of data (one bit per 4 KiB block), the worst-case
  // done-bitmap estimate is ~1.56 MB. Fully populating our bitmap at that
  // scale must land in the same ballpark (chunk payloads alone are 1.5625 MB
  // plus small per-chunk tree overhead).
  const uint64_t blocks = 50ULL * 1024 * 1024 * 1024 / 4096;
  RangeBitmap bm(blocks);
  bm.SetRange(0, blocks);
  double mb = static_cast<double>(bm.MemoryBytes()) / (1024.0 * 1024.0);
  EXPECT_GT(mb, 1.4);
  EXPECT_LT(mb, 1.8);
}

class RangeBitmapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeBitmapPropertyTest, MatchesDenseBitmap) {
  Rng rng(GetParam());
  const uint64_t n = kChunk * 3 + rng.Uniform(kChunk);
  RangeBitmap sparse(n);
  Bitmap dense(n);

  for (int step = 0; step < 400; ++step) {
    switch (rng.Uniform(4)) {
      case 0: {
        uint64_t b = rng.Uniform(n);
        sparse.Set(b);
        dense.Set(b);
        break;
      }
      case 1: {
        uint64_t b = rng.Uniform(n);
        sparse.Clear(b);
        dense.Clear(b);
        break;
      }
      case 2: {
        uint64_t lo = rng.Uniform(n + 1);
        uint64_t hi = lo + rng.Uniform(n + 1 - lo);
        sparse.SetRange(lo, hi);
        dense.SetRange(lo, hi);
        break;
      }
      case 3: {
        uint64_t lo = rng.Uniform(n + 1);
        uint64_t hi = lo + rng.Uniform(n + 1 - lo);
        sparse.ClearRange(lo, hi);
        dense.ClearRange(lo, hi);
        break;
      }
    }
    ASSERT_EQ(sparse.Count(), dense.Count()) << "step " << step;
  }

  for (uint64_t anchor = 0; anchor < n; anchor += 997) {
    ASSERT_EQ(sparse.FindNextSet(anchor), dense.FindNextSet(anchor));
  }
  for (uint64_t b = 0; b < n; b += 509) {
    ASSERT_EQ(sparse.Test(b), dense.Test(b));
  }

  // Invariant: no allocated chunk is entirely clear.
  sparse.ClearRange(0, n);
  EXPECT_EQ(sparse.chunk_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeBitmapPropertyTest,
                         ::testing::Values(7, 11, 17, 23, 31, 41));

// ---- Chunk-boundary seams ----
// Operations that straddle the 32768-bit chunk granularity exercise the
// allocate/deallocate seams of the red-black-tree chunk store.

TEST(RangeBitmapTest, SetClearAtChunkSeams) {
  RangeBitmap b(kChunk * 4);
  for (uint64_t seam = kChunk; seam <= 3 * kChunk; seam += kChunk) {
    b.Set(seam - 1);
    b.Set(seam);
    EXPECT_TRUE(b.Test(seam - 1));
    EXPECT_TRUE(b.Test(seam));
  }
  EXPECT_EQ(b.Count(), 6u);
  EXPECT_EQ(b.chunk_count(), 4u);  // chunks 0,1,2,3 each hold a seam bit
  for (uint64_t seam = kChunk; seam <= 3 * kChunk; seam += kChunk) {
    b.Clear(seam - 1);
    b.Clear(seam);
  }
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b.chunk_count(), 0u);  // all chunks freed once emptied
}

TEST(RangeBitmapTest, RangeStraddlingThreeChunks) {
  RangeBitmap b(kChunk * 4);
  // Partial first chunk, full middle chunk, partial last chunk.
  uint64_t begin = kChunk - 7;
  uint64_t end = 2 * kChunk + 9;
  b.SetRange(begin, end);
  EXPECT_EQ(b.Count(), end - begin);
  EXPECT_EQ(b.chunk_count(), 3u);
  EXPECT_FALSE(b.Test(begin - 1));
  EXPECT_TRUE(b.Test(begin));
  EXPECT_TRUE(b.Test(end - 1));
  EXPECT_FALSE(b.Test(end));
  // Clearing just the middle chunk's span frees exactly that chunk.
  b.ClearRange(kChunk, 2 * kChunk);
  EXPECT_EQ(b.chunk_count(), 2u);
  EXPECT_EQ(b.Count(), 7u + 9u);
  b.ClearRange(begin, end);
  EXPECT_EQ(b.chunk_count(), 0u);
}

TEST(RangeBitmapTest, FindNextSetAcrossChunkSeam) {
  RangeBitmap b(kChunk * 3);
  b.Set(kChunk - 1);
  b.Set(2 * kChunk);
  EXPECT_EQ(b.FindNextSet(0), std::optional<uint64_t>(kChunk - 1));
  // From exactly the seam: must skip the unallocated middle chunk.
  EXPECT_EQ(b.FindNextSet(kChunk), std::optional<uint64_t>(2 * kChunk));
  EXPECT_EQ(b.FindNextSet(2 * kChunk + 1), std::nullopt);
}

// ---- Differential test against a std::set ----
// Seeded random operations, mostly near chunk seams, applied to a
// RangeBitmap and to a std::set of its set bits. Resize follows the
// bitmap's contract: a chunk entirely past the new end is dropped, bits in
// the last partial chunk stay (and count). After every operation the count,
// the chunks holding a set bit, and FindNextSet from a few anchors agree.

class RangeBitmapDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Chunks holding at least one element of `ref`.
uint64_t ReferenceChunks(const std::set<uint64_t>& ref) {
  std::set<uint64_t> chunks;
  for (uint64_t bit : ref) {
    chunks.insert(bit / kChunk);
  }
  return chunks.size();
}

std::optional<uint64_t> ReferenceNextSet(const std::set<uint64_t>& ref, uint64_t from,
                                         uint64_t size) {
  auto it = ref.lower_bound(from);
  if (it == ref.end() || *it >= size) {
    return std::nullopt;
  }
  return *it;
}

TEST_P(RangeBitmapDifferentialTest, MatchesStdSet) {
  Rng rng(GetParam());
  uint64_t size = kChunk * (2 + rng.Uniform(4)) + rng.Uniform(kChunk);
  RangeBitmap bm(size);
  std::set<uint64_t> ref;
  // A bit near a chunk seam (or anywhere), below `limit`.
  auto pick = [&rng](uint64_t limit) {
    if (rng.Chance(0.5)) {
      uint64_t seam = kChunk * rng.Uniform(limit / kChunk + 1);
      uint64_t bit = seam + rng.Uniform(64) - std::min<uint64_t>(seam, 32);
      return std::min(bit, limit - 1);
    }
    return rng.Uniform(limit);
  };

  for (int step = 0; step < 600; ++step) {
    switch (rng.Uniform(7)) {
      case 0:
      case 1: {
        uint64_t bit = pick(size);
        bm.Set(bit);
        ref.insert(bit);
        break;
      }
      case 2: {
        // Clear a set bit when there is one, so chunks empty out.
        uint64_t bit = pick(size);
        if (!ref.empty() && rng.Chance(0.7)) {
          auto it = ref.lower_bound(bit);
          bit = it != ref.end() && *it < size ? *it : *ref.begin();
          bit = std::min(bit, size - 1);
        }
        bm.Clear(bit);
        ref.erase(bit);
        break;
      }
      case 3: {
        // Mostly short runs across a seam; now and then a whole chunk.
        uint64_t begin = pick(size);
        uint64_t len = rng.Chance(0.05) ? kChunk : rng.Uniform(3000);
        uint64_t end = std::min(size, begin + len);
        bm.SetRange(begin, end);
        for (uint64_t b = begin; b < end; ++b) {
          ref.insert(b);
        }
        break;
      }
      case 4: {
        uint64_t begin = pick(size);
        uint64_t len = rng.Chance(0.2) ? size : rng.Uniform(3000);
        uint64_t end = std::min(size, begin + len);
        bm.ClearRange(begin, end);
        ref.erase(ref.lower_bound(begin), ref.lower_bound(end));
        break;
      }
      case 5: {
        if (!rng.Chance(0.2)) {
          break;
        }
        size = kChunk * (1 + rng.Uniform(5)) + rng.Uniform(kChunk);
        bm.Resize(size);
        uint64_t kept = (size + kChunk - 1) / kChunk * kChunk;
        ref.erase(ref.lower_bound(kept), ref.end());
        break;
      }
      case 6: {
        uint64_t bit = pick(size);
        ASSERT_EQ(bm.Test(bit), ref.count(bit) == 1) << "step " << step << " bit " << bit;
        break;
      }
    }
    ASSERT_EQ(bm.size(), size) << "step " << step;
    ASSERT_EQ(bm.Count(), ref.size()) << "step " << step;
    ASSERT_EQ(bm.chunk_count(), ReferenceChunks(ref)) << "step " << step;
    if (ref.empty()) {
      ASSERT_EQ(bm.MemoryBytes(), 0u) << "step " << step;
    }
    for (uint64_t from : {uint64_t{0}, pick(size), pick(size)}) {
      ASSERT_EQ(bm.FindNextSet(from), ReferenceNextSet(ref, from, size))
          << "step " << step << " from " << from;
    }
  }

  bm.ClearRange(0, size);
  ref.erase(ref.begin(), ref.lower_bound(size));
  EXPECT_EQ(bm.Count(), ref.size());
  if (ref.empty()) {
    EXPECT_EQ(bm.chunk_count(), 0u);
    EXPECT_EQ(bm.MemoryBytes(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeBitmapDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace duet
