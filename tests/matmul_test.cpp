#include "tensor/matmul.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "rng/xorshift.hpp"
#include "tensor/ops.hpp"

namespace dropback::tensor {
namespace {

Tensor rand_tensor(Shape shape, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1.0F, 1.0F);
  return t;
}

/// Naive triple-loop reference.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t l = 0; l < k; ++l) {
        acc += a.at({i, l}) * b.at({l, j});
      }
      c.at({i, j}) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4F) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

TEST(Matmul, KnownSmallCase) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0F);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 64.0F);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 139.0F);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0F);
}

TEST(Matmul, IdentityIsNeutral) {
  Tensor a = rand_tensor({4, 4}, 1);
  Tensor eye({4, 4});
  for (std::int64_t i = 0; i < 4; ++i) eye.at({i, i}) = 1.0F;
  expect_close(matmul(a, eye), a);
  expect_close(matmul(eye, a), a);
}

TEST(Matmul, InnerDimMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({4, 2})), std::invalid_argument);
  EXPECT_THROW(matmul(Tensor({6}), Tensor({6, 1})), std::invalid_argument);
}

TEST(Matmul, SkipsZeroRowsCorrectly) {
  // The kernel short-circuits zero entries of A; result must still be exact.
  Tensor a = Tensor::from_vector({2, 3}, {0, 2, 0, 1, 0, 3});
  Tensor b = rand_tensor({3, 4}, 2);
  expect_close(matmul(a, b), naive_matmul(a, b));
}

TEST(MatmulTn, MatchesExplicitTranspose) {
  Tensor a = rand_tensor({5, 3}, 3);  // interpreted as A^T with A [3, 5]
  Tensor b = rand_tensor({5, 4}, 4);
  expect_close(matmul_tn(a, b), naive_matmul(transpose2d(a), b));
}

TEST(MatmulNt, MatchesExplicitTranspose) {
  Tensor a = rand_tensor({5, 3}, 5);
  Tensor b = rand_tensor({4, 3}, 6);
  expect_close(matmul_nt(a, b), naive_matmul(a, transpose2d(b)));
}

TEST(MatmulTn, DimChecks) {
  EXPECT_THROW(matmul_tn(Tensor({5, 3}), Tensor({4, 4})),
               std::invalid_argument);
}

TEST(MatmulNt, DimChecks) {
  EXPECT_THROW(matmul_nt(Tensor({5, 3}), Tensor({4, 4})),
               std::invalid_argument);
}

TEST(Matmul, BlockedPathAgreesWithSmallKernel) {
  // k*n above the L2 threshold dispatches the cache-blocked kernel; verify
  // it produces the same result as the naive reference on a sub-slice.
  Tensor a = rand_tensor({8, 600}, 30);
  Tensor b = rand_tensor({600, 512}, 31);  // k*n = 307200 > 262144
  Tensor c = matmul(a, b);
  // Spot-check 50 entries against the naive dot product.
  rng::Xorshift128 rng(32);
  for (int t = 0; t < 50; ++t) {
    const std::int64_t i = rng.uniform_int(8);
    const std::int64_t j = rng.uniform_int(512);
    double acc = 0.0;
    for (std::int64_t l = 0; l < 600; ++l) {
      acc += a.at({i, l}) * b.at({l, j});
    }
    EXPECT_NEAR(c.at({i, j}), acc, 1e-3) << i << "," << j;
  }
}

/// Shape sweep: all three kernels agree with the naive reference.
class MatmulSweep : public ::testing::TestWithParam<
                        std::tuple<std::int64_t, std::int64_t, std::int64_t>> {
};

TEST_P(MatmulSweep, AgreesWithNaive) {
  const auto [m, k, n] = GetParam();
  Tensor a = rand_tensor({m, k}, 10 + m);
  Tensor b = rand_tensor({k, n}, 20 + n);
  expect_close(matmul(a, b), naive_matmul(a, b));
  // Aᵀ path.
  Tensor at = transpose2d(a);
  expect_close(matmul_tn(at, b), naive_matmul(a, b));
  // Bᵀ path.
  Tensor bt = transpose2d(b);
  expect_close(matmul_nt(a, bt), naive_matmul(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 1),
                      std::make_tuple(3, 1, 5), std::make_tuple(8, 8, 8),
                      std::make_tuple(5, 13, 7), std::make_tuple(16, 3, 32),
                      std::make_tuple(2, 64, 2), std::make_tuple(31, 17, 9)));

// Edge shapes for the SIMD kernels (docs/SIMD.md): sizes below one vector
// lane for every backend width (n in 1..3 < SSE4's 4, n in 5..7 < AVX2's 8,
// n in 9..15 < AVX-512's 16), ragged tails just past each width, and odd
// everything. The gemm_acc tile additionally sees m % 4 remainder rows (a
// short row tile) and ragged last vectors (partial loads and stores).
INSTANTIATE_TEST_SUITE_P(
    SimdEdgeShapes, MatmulSweep,
    ::testing::Values(std::make_tuple(1, 1, 2), std::make_tuple(1, 1, 3),
                      std::make_tuple(4, 3, 5), std::make_tuple(3, 5, 6),
                      std::make_tuple(2, 9, 7), std::make_tuple(5, 4, 9),
                      std::make_tuple(7, 6, 11), std::make_tuple(3, 2, 13),
                      std::make_tuple(6, 8, 15), std::make_tuple(4, 16, 17),
                      std::make_tuple(9, 11, 19), std::make_tuple(33, 29, 37),
                      std::make_tuple(5, 127, 3), std::make_tuple(4, 1, 16)));

TEST(Matmul, ZeroSizeOperands) {
  // Empty dimensions must round-trip without touching any kernel lane.
  const Tensor c1 = matmul(Tensor({0, 3}), Tensor({3, 4}));
  EXPECT_EQ(c1.shape(), Shape({0, 4}));
  const Tensor c2 = matmul(Tensor({2, 0}), Tensor({0, 5}));
  ASSERT_EQ(c2.shape(), Shape({2, 5}));
  for (std::int64_t i = 0; i < c2.numel(); ++i) EXPECT_EQ(c2[i], 0.0F);
  const Tensor c3 = matmul(Tensor({3, 4}), Tensor({4, 0}));
  EXPECT_EQ(c3.shape(), Shape({3, 0}));
  EXPECT_EQ(matmul_nt(Tensor({0, 3}), Tensor({2, 3})).shape(), Shape({0, 2}));
  EXPECT_EQ(matmul_nt(Tensor({2, 3}), Tensor({0, 3})).shape(), Shape({2, 0}));
  EXPECT_EQ(matmul_tn(Tensor({3, 0}), Tensor({3, 2})).shape(), Shape({0, 2}));
}

/// The exact per-output semantic of matmul_nt: a float chain from +0 over l
/// ascending, c = c + a[i][l] * b[j][l], that skips every term whose
/// activation a[i][l] is ±0 — whatever b[j][l] holds there, inf and NaN
/// included. The gemm_acc tile must reproduce this bit for bit — EXPECT_EQ
/// on floats, not EXPECT_NEAR.
float exact_nt_dot(const Tensor& a, const Tensor& b, std::int64_t i,
                   std::int64_t j) {
  const std::int64_t k = a.size(1);
  float acc = 0.0F;
  for (std::int64_t l = 0; l < k; ++l) {
    if (a.at({i, l}) == 0.0F) continue;
    acc = acc + a.at({i, l}) * b.at({j, l});
  }
  return acc;
}

TEST(MatmulNt, FloatChainWithZeroSkipIsBitwiseExact) {
  // Full and short row tiles (m % 4), full and ragged column vectors, and
  // m < 4 (3x5x9). fc1 (32x784x100) and a VGG-S-like shape (257x27x8) are
  // the hot forward shapes. Each shape runs dense, and zero-heavy: ~3/4 of
  // the activations are ±0 (a ReLU output or MNIST's blank pixels), with
  // ±inf weights behind zeros only, where the skip must hide them. All must
  // match the reference semantic exactly on the active dispatch target.
  const float inf = std::numeric_limits<float>::infinity();
  for (const auto& [m, k, n] :
       std::vector<std::array<std::int64_t, 3>>{{4, 4, 4},
                                                {5, 3, 6},
                                                {7, 17, 9},
                                                {4, 1, 5},
                                                {9, 33, 13},
                                                {32, 784, 100},
                                                {257, 27, 8},
                                                {3, 5, 9}}) {
    for (const bool sparse : {false, true}) {
      Tensor a = rand_tensor({m, k}, 100 + k);
      Tensor b = rand_tensor({n, k}, 200 + n);
      if (sparse) {
        // Column l is all zeros for l % 4 != 1; -0 on odd rows.
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t l = 0; l < k; ++l) {
            if (l % 4 != 1) a.at({i, l}) = i % 2 == 0 ? 0.0F : -0.0F;
          }
        }
        for (std::int64_t j = 0; j < n; ++j) {
          for (std::int64_t l = 0; l < k; l += 4) {
            b.at({j, l}) = (j + l) % 8 == 0 ? -inf : inf;
          }
        }
      }
      const Tensor c = matmul_nt(a, b);
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          const float want = exact_nt_dot(a, b, i, j);
          ASSERT_FALSE(std::isinf(want) || std::isnan(want));
          EXPECT_EQ(c.at({i, j}), want)
              << m << "x" << k << "x" << n << (sparse ? " sparse" : "")
              << " at " << i << "," << j;
        }
      }
    }
  }
}

TEST(MatmulTn, StridedColumnAccessMatchesContiguous) {
  // matmul_tn reads A^T columns with stride m — the one non-contiguous
  // access pattern in the matmul family. It must agree bitwise with the
  // contiguous-operand product of the explicitly transposed matrix.
  const Tensor at = rand_tensor({13, 7}, 300);  // A is [7, 13] conceptually
  const Tensor b = rand_tensor({13, 5}, 301);
  const Tensor via_strided = matmul_tn(at, b);
  const Tensor via_copy = matmul(transpose2d(at), b);
  ASSERT_EQ(via_strided.shape(), via_copy.shape());
  for (std::int64_t i = 0; i < via_strided.numel(); ++i) {
    EXPECT_EQ(via_strided[i], via_copy[i]) << "flat " << i;
  }
}

}  // namespace
}  // namespace dropback::tensor
