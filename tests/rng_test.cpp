#include "rng/xorshift.hpp"

#include <gtest/gtest.h>

#include "rng/init_spec.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace dropback::rng {
namespace {

TEST(Xorshift128, DeterministicForSameSeed) {
  Xorshift128 a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Xorshift128, DifferentSeedsDiverge) {
  Xorshift128 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Xorshift128, ZeroSeedIsValid) {
  Xorshift128 a(0);
  // Degenerate all-zero state would yield an endless zero stream.
  std::set<std::uint32_t> values;
  for (int i = 0; i < 100; ++i) values.insert(a.next_u32());
  EXPECT_GT(values.size(), 90U);
}

TEST(Xorshift128, UniformInUnitInterval) {
  Xorshift128 rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const float u = rng.uniform();
    ASSERT_GE(u, 0.0F);
    ASSERT_LT(u, 1.0F);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Xorshift128, UniformRangeRespectsBounds) {
  Xorshift128 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-3.0F, 5.0F);
    ASSERT_GE(v, -3.0F);
    ASSERT_LT(v, 5.0F);
  }
}

TEST(Xorshift128, UniformIntStaysBelowBound) {
  Xorshift128 rng(11);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 50000; ++i) {
    const std::uint32_t v = rng.uniform_int(10);
    ASSERT_LT(v, 10U);
    ++histogram[v];
  }
  // All buckets roughly uniform (5000 +- 10%).
  for (int count : histogram) {
    EXPECT_GT(count, 4400);
    EXPECT_LT(count, 5600);
  }
}

TEST(Xorshift128, NormalMomentsMatchStandardNormal) {
  Xorshift128 rng(13);
  const int n = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Xorshift128, NormalWithMeanAndStddev) {
  Xorshift128 rng(17);
  const int n = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0F, 0.5F);
    sum += x;
    sum_sq += (x - 3.0) * (x - 3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 0.25, 0.01);
}

TEST(Splitmix64, IsDeterministicAndMixing) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
  // Sequential inputs produce well-spread outputs.
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 1000; ++i) out.insert(splitmix64(i));
  EXPECT_EQ(out.size(), 1000U);
}

// --- indexed (counter-based) regeneration --------------------------------

TEST(IndexedRegen, PureFunctionOfSeedAndIndex) {
  for (std::uint64_t seed : {0ULL, 1ULL, 0xDEADBEEFULL}) {
    for (std::uint64_t idx : {0ULL, 1ULL, 77ULL, 1000000ULL}) {
      EXPECT_EQ(indexed_u32(seed, idx), indexed_u32(seed, idx));
      EXPECT_EQ(indexed_normal_fast(seed, idx),
                indexed_normal_fast(seed, idx));
    }
  }
}

TEST(IndexedRegen, OrderIndependent) {
  // Access in forward order, then reverse order: identical values. This is
  // the property that lets DropBack regenerate untracked weights at any
  // time without storing them.
  const std::uint64_t seed = 99;
  std::vector<float> forward, backward;
  for (std::uint64_t i = 0; i < 500; ++i) {
    forward.push_back(indexed_normal_fast(seed, i));
  }
  for (std::uint64_t i = 500; i-- > 0;) {
    backward.push_back(indexed_normal_fast(seed, i));
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST(IndexedRegen, DifferentSeedsDecorrelated) {
  int same = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (indexed_u32(1, i) == indexed_u32(2, i)) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(IndexedRegen, AdjacentIndicesDecorrelated) {
  // Correlation between consecutive draws should be tiny.
  const int n = 20000;
  double sum_x = 0, sum_y = 0, sum_xx = 0, sum_yy = 0, sum_xy = 0;
  for (int i = 0; i < n; ++i) {
    const double x = indexed_normal_fast(5, static_cast<std::uint64_t>(i));
    const double y =
        indexed_normal_fast(5, static_cast<std::uint64_t>(i) + 1);
    sum_x += x;
    sum_y += y;
    sum_xx += x * x;
    sum_yy += y * y;
    sum_xy += x * y;
  }
  const double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
  const double vx = sum_xx / n - (sum_x / n) * (sum_x / n);
  const double vy = sum_yy / n - (sum_y / n) * (sum_y / n);
  EXPECT_LT(std::fabs(cov / std::sqrt(vx * vy)), 0.03);
}

TEST(IndexedRegen, FastNormalMomentsApproximatelyStandard) {
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = indexed_normal_fast(3, static_cast<std::uint64_t>(i));
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(IndexedRegen, FastNormalBoundedByCltRange) {
  // CLT over 4 bytes cannot exceed (1020-510)/147.8 ~ 3.451 sigma.
  for (int i = 0; i < 100000; ++i) {
    const float x = indexed_normal_fast(1, static_cast<std::uint64_t>(i));
    ASSERT_LT(std::fabs(x), 3.46F);
  }
}

TEST(IndexedRegen, UniformInUnitInterval) {
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const float u = indexed_uniform(10, static_cast<std::uint64_t>(i));
    ASSERT_GE(u, 0.0F);
    ASSERT_LT(u, 1.0F);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(IndexedRegen, CostConstantsMatchPaperClaim) {
  // The 427x figure rests on the regen path being ~6 int + 1 float ops.
  EXPECT_EQ(kRegenIntOps, 6);
  EXPECT_EQ(kRegenFloatOps, 1);
}

/// Property sweep: the fast-normal histogram should be symmetric around 0
/// for any seed.
class IndexedSymmetryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexedSymmetryTest, HistogramSymmetricAroundZero) {
  const std::uint64_t seed = GetParam();
  int pos = 0, neg = 0;
  for (int i = 0; i < 40000; ++i) {
    const float x = indexed_normal_fast(seed, static_cast<std::uint64_t>(i));
    if (x > 0.0F) ++pos;
    if (x < 0.0F) ++neg;
  }
  EXPECT_NEAR(static_cast<double>(pos) / (pos + neg), 0.5, 0.015);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedSymmetryTest,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 1234567ULL,
                                           0xFFFFFFFFFFFFULL));

// --- batched multi-lane regen (docs/SIMD.md) ------------------------------
//
// InitSpec::fill / fill_range run on the SIMD regen kernel of the active
// dispatch target. The contract is bitwise: fill(n)[i] == value_at(i) for
// every i, every n (sub-lane sizes, exact vector multiples, ragged tails),
// and every window start — EXPECT_EQ on floats, never a tolerance.

TEST(InitSpecBatched, FillMatchesValueAtForEverySmallSize) {
  const InitSpec spec = InitSpec::scaled_normal(0.05F, 99);
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<float> got(n, -1.0F);
    spec.fill(got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], spec.value_at(i)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(InitSpecBatched, FillRangeMatchesValueAtAtArbitraryOffsets) {
  const InitSpec spec = InitSpec::scaled_normal(1.5F, 7);
  // Window starts straddling every lane-alignment class, plus one beyond
  // 2^32 so the 64-bit index path is exercised end to end.
  const std::uint64_t firsts[] = {0,  1,  3,  4,  7,   8,          15,
                                  16, 17, 63, 64, 511, 1000000007, (1ULL << 33) + 11};
  for (const std::uint64_t first : firsts) {
    std::vector<float> got(37, 0.0F);
    spec.fill_range(first, got.data(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], spec.value_at(first + i))
          << "first=" << first << " i=" << i;
    }
  }
}

TEST(InitSpecBatched, FillRangeIsAWindowOfFill) {
  // Regeneration is a pure function of (spec, index): a window computed in
  // isolation equals the same slice of a from-zero fill.
  const InitSpec spec = InitSpec::scaled_normal(0.1F, 1234);
  std::vector<float> whole(96);
  spec.fill(whole.data(), whole.size());
  for (const std::size_t first : {std::size_t{0}, std::size_t{5},
                                  std::size_t{32}, std::size_t{65}}) {
    std::vector<float> window(whole.size() - first);
    spec.fill_range(first, window.data(), window.size());
    for (std::size_t i = 0; i < window.size(); ++i) {
      EXPECT_EQ(window[i], whole[first + i]) << "first=" << first;
    }
  }
}

TEST(InitSpecBatched, ConstantSpecFillsExactValue) {
  const InitSpec spec = InitSpec::constant(0.25F);
  std::vector<float> got(19, 0.0F);
  spec.fill_range(1000, got.data(), got.size());
  for (const float v : got) EXPECT_EQ(v, 0.25F);
}

TEST(InitSpecBatched, ZeroSizeFillIsANoop) {
  const InitSpec spec = InitSpec::scaled_normal(1.0F, 3);
  float sentinel = 42.0F;
  spec.fill(&sentinel, 0);
  spec.fill_range(17, &sentinel, 0);
  EXPECT_EQ(sentinel, 42.0F);
}

}  // namespace
}  // namespace dropback::rng
