#include "tensor/conv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "rng/xorshift.hpp"
#include "util/thread_pool.hpp"

namespace dropback::tensor {
namespace {

Tensor rand_tensor(Shape shape, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1.0F, 1.0F);
  return t;
}

/// Direct (definition-level) convolution used as ground truth.
Tensor naive_conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
                    const Conv2dSpec& spec) {
  const std::int64_t n = x.size(0), cin = x.size(1), h = x.size(2),
                     wid = x.size(3);
  const std::int64_t cout = w.size(0);
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(wid);
  Tensor y({n, cout, oh, ow});
  for (std::int64_t bn = 0; bn < n; ++bn) {
    for (std::int64_t oc = 0; oc < cout; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = b.defined() ? b[oc] : 0.0;
          for (std::int64_t ic = 0; ic < cin; ++ic) {
            for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
              for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
                const std::int64_t iy = oy * spec.stride + ky - spec.padding;
                const std::int64_t ix = ox * spec.stride + kx - spec.padding;
                if (iy >= 0 && iy < h && ix >= 0 && ix < wid) {
                  acc += x.at({bn, ic, iy, ix}) * w.at({oc, ic, ky, kx});
                }
              }
            }
          }
          y.at({bn, oc, oy, ox}) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 2e-4F) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "flat " << i;
  }
}

TEST(Im2col, ShapeIsCorrect) {
  Conv2dSpec spec{3, 3, 1, 1};
  Tensor x({2, 3, 8, 8});
  Tensor cols = im2col(x, spec);
  EXPECT_EQ(cols.shape(), (Shape{2 * 8 * 8, 3 * 9}));
}

TEST(Im2col, ZeroPaddingFillsZeros) {
  Conv2dSpec spec{3, 3, 1, 1};
  Tensor x = Tensor::ones({1, 1, 2, 2});
  Tensor cols = im2col(x, spec);
  // First output position (0,0): top-left 3x3 window has 5 out-of-bounds.
  float sum = 0.0F;
  for (std::int64_t j = 0; j < 9; ++j) sum += cols.at({0, j});
  EXPECT_FLOAT_EQ(sum, 4.0F);
}

TEST(Conv2d, MatchesNaiveWithBias) {
  Conv2dSpec spec{3, 3, 1, 1};
  Tensor x = rand_tensor({2, 3, 6, 6}, 3);
  Tensor w = rand_tensor({4, 3, 3, 3}, 4);
  Tensor b = rand_tensor({4}, 5);
  expect_close(conv2d(x, w, b, spec), naive_conv2d(x, w, b, spec));
}

TEST(Conv2d, MatchesNaiveNoBias) {
  Conv2dSpec spec{3, 3, 1, 1};
  Tensor x = rand_tensor({1, 2, 5, 5}, 6);
  Tensor w = rand_tensor({3, 2, 3, 3}, 7);
  expect_close(conv2d(x, w, Tensor(), spec),
               naive_conv2d(x, w, Tensor(), spec));
}

TEST(Conv2d, OneByOneKernelIsChannelMix) {
  Conv2dSpec spec{1, 1, 1, 0};
  Tensor x = rand_tensor({1, 2, 3, 3}, 8);
  Tensor w = Tensor::from_vector({1, 2, 1, 1}, {2.0F, -1.0F});
  Tensor y = conv2d(x, w, Tensor(), spec);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_NEAR(y.at({0, 0, 1, 1}),
              2.0F * x.at({0, 0, 1, 1}) - x.at({0, 1, 1, 1}), 1e-5F);
}

TEST(Conv2d, ShapeChecks) {
  Conv2dSpec spec{3, 3, 1, 1};
  EXPECT_THROW(conv2d(Tensor({1, 2, 5, 5}), Tensor({4, 3, 3, 3}), Tensor(),
                      spec),
               std::invalid_argument);
}

TEST(Conv2dBackward, ShapeChecks) {
  Conv2dSpec spec{3, 3, 1, 1};
  const Tensor x({1, 2, 5, 5});
  const Tensor gy({1, 4, 5, 5});
  // Input channels, kernel height, kernel width and rank each disagree.
  for (const Shape& bad : {Shape{4, 3, 3, 3}, Shape{4, 2, 5, 3},
                           Shape{4, 2, 3, 1}, Shape{4, 18}}) {
    EXPECT_THROW(conv2d_backward(x, Tensor(bad), gy, spec, true),
                 std::invalid_argument)
        << shape_str(bad);
  }
  EXPECT_THROW(conv2d_backward(x, Tensor({4, 2, 3, 3}), Tensor({1, 3, 5, 5}),
                               spec, true),
               std::invalid_argument);
}

TEST(Conv2dBackward, BiasGradIsChannelSumOfGy) {
  Conv2dSpec spec{3, 3, 1, 1};
  Tensor x = rand_tensor({2, 2, 4, 4}, 9);
  Tensor w = rand_tensor({3, 2, 3, 3}, 10);
  Tensor gy = rand_tensor({2, 3, 4, 4}, 11);
  const auto grads = conv2d_backward(x, w, gy, spec, /*with_bias=*/true);
  for (std::int64_t c = 0; c < 3; ++c) {
    double expect = 0.0;
    for (std::int64_t n = 0; n < 2; ++n) {
      for (std::int64_t i = 0; i < 4; ++i) {
        for (std::int64_t j = 0; j < 4; ++j) expect += gy.at({n, c, i, j});
      }
    }
    EXPECT_NEAR(grads.grad_bias[c], expect, 1e-3);
  }
}

TEST(Conv2dBackward, GradInputIsAdjointOfForward) {
  // <conv(x), gy> == <x, grad_input(gy)> when conv is linear (no bias).
  Conv2dSpec spec{3, 3, 2, 1};
  Tensor x = rand_tensor({1, 2, 6, 6}, 12);
  Tensor w = rand_tensor({3, 2, 3, 3}, 13);
  Tensor y = conv2d(x, w, Tensor(), spec);
  Tensor gy = rand_tensor(y.shape(), 14);
  const auto grads = conv2d_backward(x, w, gy, spec, false);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) lhs += y[i] * gy[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += x[i] * grads.grad_input[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Conv2dBackward, WithoutInputSkipsOnlyTheInputGradient) {
  // A first layer's input takes no gradient: the dX pass is skipped, and
  // dW and dB keep every bit of the full pass.
  Conv2dSpec spec{3, 3, 1, 1};
  Tensor x = rand_tensor({2, 3, 7, 7}, 15);
  Tensor w = rand_tensor({4, 3, 3, 3}, 16);
  Tensor gy = rand_tensor({2, 4, 7, 7}, 17);
  const auto full = conv2d_backward(x, w, gy, spec, true);
  const auto no_dx = conv2d_backward(x, w, gy, spec, true, false);
  EXPECT_TRUE(full.grad_input.defined());
  EXPECT_FALSE(no_dx.grad_input.defined());
  for (std::int64_t i = 0; i < full.grad_weight.numel(); ++i) {
    EXPECT_EQ(full.grad_weight[i], no_dx.grad_weight[i]) << i;
  }
  for (std::int64_t i = 0; i < full.grad_bias.numel(); ++i) {
    EXPECT_EQ(full.grad_bias[i], no_dx.grad_bias[i]) << i;
  }
}

TEST(Conv2d, EmptyBatch) {
  Conv2dSpec spec{3, 3, 1, 1};
  const Tensor x({0, 2, 5, 5});
  const Tensor w = rand_tensor({3, 2, 3, 3}, 18);
  EXPECT_EQ(im2col(x, spec).shape(), Shape({0, 18}));
  EXPECT_EQ(conv2d(x, w, Tensor(), spec).shape(), Shape({0, 3, 5, 5}));
  const auto grads = conv2d_backward(x, w, Tensor({0, 3, 5, 5}), spec, false);
  EXPECT_EQ(grads.grad_input.shape(), x.shape());
  for (std::int64_t i = 0; i < grads.grad_weight.numel(); ++i) {
    EXPECT_EQ(grads.grad_weight[i], 0.0F);
  }
}

/// conv2d's exact per-output semantic: a float chain from +0 over the patch
/// column l = (ci, ky, kx) ascending, c = c + w·tap with tap 0 in the
/// padding, that skips every ±0 weight whatever its tap holds, then one
/// float bias add.
float chain_output(const Tensor& x, const Tensor& w, const Tensor& b,
                   const Conv2dSpec& spec, std::int64_t bn, std::int64_t oc,
                   std::int64_t oy, std::int64_t ox) {
  float acc = 0.0F;
  for (std::int64_t ic = 0; ic < x.size(1); ++ic) {
    for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
        const float wv = w.at({oc, ic, ky, kx});
        if (wv == 0.0F) continue;
        const std::int64_t iy = oy * spec.stride + ky - spec.padding;
        const std::int64_t ix = ox * spec.stride + kx - spec.padding;
        const bool inside =
            iy >= 0 && iy < x.size(2) && ix >= 0 && ix < x.size(3);
        acc = acc + wv * (inside ? x.at({bn, ic, iy, ix}) : 0.0F);
      }
    }
  }
  return acc + b[oc];
}

TEST(Conv2d, EveryOutputIsTheFloatChainWithZeroSkip) {
  // Images of 1x1, 2x2, 4x4 and 5x7 are smaller than a panel, so a panel
  // holds several whole images (113 positions at patch width 144); 12x12
  // splits one image over two panels. Batches 1, 7 and 16 at 1 and 3
  // threads compose the panels differently, including panels cut short by a
  // shard boundary. A third of the weights are ±0, and input channel 0 is
  // +inf: filters 0 and 1 have zeros across that channel, so the skip must
  // keep their outputs finite, while the other filters turn inf or NaN.
  const Conv2dSpec spec{3, 3, 1, 1};
  const float inf = std::numeric_limits<float>::infinity();
  Tensor w = rand_tensor({5, 16, 3, 3}, 61);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    if (i % 3 == 0) w[i] = i % 2 == 0 ? 0.0F : -0.0F;
  }
  for (std::int64_t oc = 0; oc < 2; ++oc) {
    for (std::int64_t t = 0; t < 9; ++t) w.at({oc, 0, t / 3, t % 3}) = 0.0F;
  }
  const Tensor b = rand_tensor({5}, 62);
  for (const auto& [h, wid] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {1, 1}, {2, 2}, {4, 4}, {5, 7}, {12, 12}}) {
    for (const std::int64_t n : {1, 7, 16}) {
      Tensor x = rand_tensor({n, 16, h, wid}, 63 + h);
      for (std::int64_t bn = 0; bn < n; ++bn) {
        for (std::int64_t p = 0; p < h * wid; ++p) x[bn * 16 * h * wid + p] = inf;
      }
      for (const int threads : {1, 3}) {
        util::set_num_threads(threads);
        const Tensor y = conv2d(x, w, b, spec);
        util::set_num_threads(1);
        std::int64_t i = 0;
        for (std::int64_t bn = 0; bn < n; ++bn) {
          for (std::int64_t oc = 0; oc < 5; ++oc) {
            for (std::int64_t oy = 0; oy < h; ++oy) {
              for (std::int64_t ox = 0; ox < wid; ++ox, ++i) {
                const float want = chain_output(x, w, b, spec, bn, oc, oy, ox);
                const float got = y[i];
                ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
                    << h << "x" << wid << " batch " << n << " @" << threads
                    << " threads, output " << bn << "," << oc << "," << oy
                    << "," << ox << ": " << got << " vs " << want;
                if (oc < 2) {
                  ASSERT_TRUE(std::isfinite(want));
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(MaxPool, ForwardAndArgmax) {
  Tensor x = Tensor::from_vector(
      {1, 1, 4, 4}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  std::vector<std::int64_t> argmax;
  Tensor y = maxpool2d(x, 2, 2, &argmax);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 6.0F);
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), 16.0F);
  EXPECT_EQ(argmax[0], 5);
  EXPECT_EQ(argmax[3], 15);
}

TEST(MaxPool, BackwardScattersToArgmax) {
  Tensor x = rand_tensor({1, 2, 4, 4}, 15);
  std::vector<std::int64_t> argmax;
  Tensor y = maxpool2d(x, 2, 2, &argmax);
  Tensor gy = Tensor::ones(y.shape());
  Tensor gx = maxpool2d_backward(gy, x.shape(), argmax);
  // Exactly one gradient unit per pooling window.
  EXPECT_FLOAT_EQ(gx.sum(), static_cast<float>(y.numel()));
  for (std::int64_t i = 0; i < gx.numel(); ++i) {
    EXPECT_TRUE(gx[i] == 0.0F || gx[i] == 1.0F);
  }
}

TEST(AvgPool, ForwardAveragesWindows) {
  Tensor x = Tensor::from_vector(
      {1, 1, 4, 4}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  Tensor y = avgpool2d(x, 2, 2);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 3.5F);
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), 13.5F);
}

TEST(AvgPool, BackwardDistributesEvenly) {
  Tensor gy = Tensor::ones({1, 1, 2, 2});
  Tensor gx = avgpool2d_backward(gy, {1, 1, 4, 4}, 2, 2);
  for (std::int64_t i = 0; i < gx.numel(); ++i) {
    EXPECT_FLOAT_EQ(gx[i], 0.25F);
  }
}

TEST(GlobalAvgPool, ForwardAndBackward) {
  Tensor x = rand_tensor({2, 3, 4, 4}, 16);
  Tensor y = global_avgpool(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
  double manual = 0.0;
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) manual += x.at({1, 2, i, j});
  }
  EXPECT_NEAR(y.at({1, 2}), manual / 16.0, 1e-5);
  Tensor gy = Tensor::ones({2, 3});
  Tensor gx = global_avgpool_backward(gy, x.shape());
  EXPECT_FLOAT_EQ(gx[0], 1.0F / 16.0F);
  EXPECT_NEAR(gx.sum(), 6.0F, 1e-4F);
}

/// Conv spec sweep: im2col-based conv equals the naive definition for all
/// kernel/stride/padding combinations.
class ConvSweep
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(ConvSweep, MatchesNaive) {
  const auto [kernel, stride, padding] = GetParam();
  Conv2dSpec spec{kernel, kernel, stride, padding};
  Tensor x = rand_tensor({2, 2, 7, 7}, 100 + kernel);
  if (spec.out_h(7) <= 0) GTEST_SKIP() << "empty output for this spec";
  Tensor w = rand_tensor({3, 2, kernel, kernel}, 200 + stride);
  Tensor b = rand_tensor({3}, 300 + padding);
  expect_close(conv2d(x, w, b, spec), naive_conv2d(x, w, b, spec));
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ConvSweep,
    ::testing::Values(std::make_tuple(1, 1, 0), std::make_tuple(3, 1, 0),
                      std::make_tuple(3, 1, 1), std::make_tuple(3, 2, 1),
                      std::make_tuple(5, 1, 2), std::make_tuple(5, 2, 0),
                      std::make_tuple(7, 3, 3)));

}  // namespace
}  // namespace dropback::tensor
