// Property-based sweeps over the tensor kernels: algebraic identities that
// must hold for arbitrary shapes and data, complementing the example-based
// tests in tensor_test / matmul_test / conv_test.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "rng/xorshift.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace dropback::tensor {
namespace {

Tensor rand_tensor(Shape shape, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4F) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "flat " << i;
  }
}

/// (m, k, n) triples for matmul laws.
class MatmulLaws
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(MatmulLaws, DistributesOverAddition) {
  const auto [m, k, n] = GetParam();
  Tensor a = rand_tensor({m, k}, 1);
  Tensor b = rand_tensor({k, n}, 2);
  Tensor c = rand_tensor({k, n}, 3);
  expect_close(matmul(a, add(b, c)), add(matmul(a, b), matmul(a, c)), 2e-4F);
}

TEST_P(MatmulLaws, ScalarCommutes) {
  const auto [m, k, n] = GetParam();
  Tensor a = rand_tensor({m, k}, 4);
  Tensor b = rand_tensor({k, n}, 5);
  expect_close(matmul(mul_scalar(a, 2.5F), b),
               mul_scalar(matmul(a, b), 2.5F), 2e-4F);
}

TEST_P(MatmulLaws, TransposeReversesProduct) {
  const auto [m, k, n] = GetParam();
  Tensor a = rand_tensor({m, k}, 6);
  Tensor b = rand_tensor({k, n}, 7);
  // (AB)ᵀ = Bᵀ Aᵀ
  expect_close(transpose2d(matmul(a, b)),
               matmul(transpose2d(b), transpose2d(a)), 2e-4F);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulLaws,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 7, 3),
                      std::make_tuple(9, 4, 9), std::make_tuple(16, 16, 16),
                      std::make_tuple(5, 31, 2)));

/// Associativity needs three compatible matrices.
TEST(MatmulLaws, Associates) {
  Tensor a = rand_tensor({4, 6}, 8);
  Tensor b = rand_tensor({6, 5}, 9);
  Tensor c = rand_tensor({5, 7}, 10);
  expect_close(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), 5e-4F);
}

/// Convolution is linear in both inputs and weights.
class ConvLinearity
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(ConvLinearity, LinearInInput) {
  const auto [kernel, stride, padding] = GetParam();
  Conv2dSpec spec{kernel, kernel, stride, padding};
  if (spec.out_h(6) <= 0) GTEST_SKIP();
  Tensor x1 = rand_tensor({1, 2, 6, 6}, 11);
  Tensor x2 = rand_tensor({1, 2, 6, 6}, 12);
  Tensor w = rand_tensor({3, 2, kernel, kernel}, 13);
  expect_close(conv2d(add(x1, x2), w, Tensor(), spec),
               add(conv2d(x1, w, Tensor(), spec),
                   conv2d(x2, w, Tensor(), spec)),
               2e-4F);
}

TEST_P(ConvLinearity, LinearInWeights) {
  const auto [kernel, stride, padding] = GetParam();
  Conv2dSpec spec{kernel, kernel, stride, padding};
  if (spec.out_h(6) <= 0) GTEST_SKIP();
  Tensor x = rand_tensor({1, 2, 6, 6}, 14);
  Tensor w1 = rand_tensor({3, 2, kernel, kernel}, 15);
  Tensor w2 = rand_tensor({3, 2, kernel, kernel}, 16);
  expect_close(conv2d(x, add(w1, w2), Tensor(), spec),
               add(conv2d(x, w1, Tensor(), spec),
                   conv2d(x, w2, Tensor(), spec)),
               2e-4F);
}

TEST_P(ConvLinearity, Im2colMatchesNaiveTapsForSpec) {
  // Every column entry against its tap computed index by index: row
  // (b, oy, ox), column (ch, ky, kx), zero where the tap is in the padding.
  const auto [kernel, stride, padding] = GetParam();
  Conv2dSpec spec{kernel, kernel, stride, padding};
  if (spec.out_h(6) <= 0) GTEST_SKIP();
  const std::int64_t n = 2, c = 3, h = 6, w = 7;
  Tensor x = rand_tensor({n, c, h, w}, 20);
  const Tensor cols = im2col(x, spec);
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  ASSERT_EQ(cols.shape(), Shape({n * oh * ow, c * kernel * kernel}));
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const std::int64_t row = (b * oh + oy) * ow + ox;
        for (std::int64_t ch = 0; ch < c; ++ch) {
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t iy = oy * stride - padding + ky;
              const std::int64_t ix = ox * stride - padding + kx;
              const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
              const float expect = inside ? x.at({b, ch, iy, ix}) : 0.0F;
              const std::int64_t col = (ch * kernel + ky) * kernel + kx;
              ASSERT_EQ(cols.at({row, col}), expect)
                  << "row " << row << " col " << col;
            }
          }
        }
      }
    }
  }
}

TEST_P(ConvLinearity, InputGradIsAdjointForSpec) {
  // <conv(x), gy> == <x, dX(gy)>: the col2im scatter of conv2d_backward is
  // the adjoint of the forward's im2col gather for every geometry.
  const auto [kernel, stride, padding] = GetParam();
  Conv2dSpec spec{kernel, kernel, stride, padding};
  if (spec.out_h(6) <= 0) GTEST_SKIP();
  Tensor x = rand_tensor({2, 2, 6, 6}, 17);
  Tensor w = rand_tensor({3, 2, kernel, kernel}, 18);
  Tensor y = conv2d(x, w, Tensor(), spec);
  Tensor gy = rand_tensor(y.shape(), 19);
  const Tensor dx = conv2d_backward(x, w, gy, spec, false).grad_input;
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) lhs += y[i] * gy[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * dx[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ConvLinearity,
    ::testing::Values(std::make_tuple(1, 1, 0), std::make_tuple(3, 1, 1),
                      std::make_tuple(3, 2, 1), std::make_tuple(5, 1, 2),
                      std::make_tuple(2, 2, 0)));

/// Softmax invariances.
class SoftmaxProperties : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SoftmaxProperties, ShiftInvariant) {
  const std::int64_t n = GetParam();
  Tensor x = rand_tensor({3, n}, 19);
  Tensor shifted = add_scalar(x, 7.5F);
  expect_close(row_softmax(x), row_softmax(shifted), 1e-5F);
}

TEST_P(SoftmaxProperties, LogsumexpShiftsByConstant) {
  const std::int64_t n = GetParam();
  Tensor x = rand_tensor({3, n}, 20);
  Tensor lse = row_logsumexp(x);
  Tensor lse_shifted = row_logsumexp(add_scalar(x, 2.0F));
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(lse_shifted[i], lse[i] + 2.0F, 1e-4F);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SoftmaxProperties,
                         ::testing::Values(1, 2, 10, 64));

/// Pooling consistency: average pooling with full-size kernel equals global
/// average pooling.
TEST(PoolingProperties, FullKernelAvgEqualsGlobal) {
  Tensor x = rand_tensor({2, 3, 5, 5}, 21);
  Tensor full = avgpool2d(x, 5, 5);
  Tensor global = global_avgpool(x);
  for (std::int64_t i = 0; i < global.numel(); ++i) {
    EXPECT_NEAR(full[i], global[i], 1e-5F);
  }
}

TEST(PoolingProperties, MaxPoolDominatesAvgPool) {
  Tensor x = rand_tensor({1, 2, 6, 6}, 22);
  Tensor mx = maxpool2d(x, 2, 2, nullptr);
  Tensor av = avgpool2d(x, 2, 2);
  for (std::int64_t i = 0; i < mx.numel(); ++i) {
    EXPECT_GE(mx[i], av[i]);
  }
}

TEST(PoolingProperties, PoolBackwardConservesGradientMass) {
  // Sum of gradients is conserved through avg pooling and max pooling.
  Tensor x = rand_tensor({1, 1, 4, 4}, 23);
  std::vector<std::int64_t> argmax;
  Tensor y = maxpool2d(x, 2, 2, &argmax);
  Tensor gy = rand_tensor(y.shape(), 24);
  Tensor gmax = maxpool2d_backward(gy, x.shape(), argmax);
  EXPECT_NEAR(gmax.sum(), gy.sum(), 1e-4F);
  Tensor gavg = avgpool2d_backward(gy, x.shape(), 2, 2);
  EXPECT_NEAR(gavg.sum(), gy.sum(), 1e-4F);
}

/// Channel-helper consistency with reshape-based reference.
TEST(ChannelProperties, MeanOfAffineIsAffineOfMean) {
  Tensor x = rand_tensor({2, 3, 4, 4}, 25);
  Tensor mean = channel_mean(x);
  Tensor zero_mean = channel_affine(x, mean, Tensor::ones({3}),
                                    Tensor::zeros({3}));
  Tensor new_mean = channel_mean(zero_mean);
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(new_mean[c], 0.0F, 1e-5F);
  }
}

TEST(ChannelProperties, DotWithSelfIsSumOfSquares) {
  Tensor x = rand_tensor({2, 2, 3, 3}, 26);
  Tensor d = channel_dot(x, x);
  Tensor sq = mul(x, x);
  Tensor s = channel_sum(sq);
  for (std::int64_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(d[c], s[c], 1e-4F);
  }
}

}  // namespace
}  // namespace dropback::tensor
