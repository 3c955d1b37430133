// Cross-target SIMD conformance suite (docs/SIMD.md).
//
// The determinism contract: every dispatch target's kernel table is bitwise
// identical to the scalar reference, for every input shape (tails included)
// and every thread count. This suite is parameterized over
// (target x thread count) — every runtime-available target from
// simd::available_targets() at 1/2/7 threads — and checks two layers:
//
//   1. the kernel tables directly, against simd::kScalarKernels, over a
//      size sweep that hits sub-lane sizes, exact vector multiples, and
//      ragged tails for every lane width (4/8/16) — every entry, the band
//      gather, fused mask pass and tracked-only update included;
//   2. the wired hot paths (matmul family, conv2d forward/backward,
//      InitSpec regeneration, score/apply sweeps, top-k selection), against
//      a scalar @ 1-thread reference.
//
// Comparison is memcmp, never EXPECT_FLOAT_EQ: a single reassociated add
// or contracted FMA in any backend fails.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/accumulated_gradients.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/tracked_set.hpp"
#include "nn/linear.hpp"
#include "nn/models/lenet.hpp"
#include "nn/sequential.hpp"
#include "rng/init_spec.hpp"
#include "rng/xorshift.hpp"
#include "simd/dispatch.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace dropback {
namespace {

namespace T = dropback::tensor;
using simd::Cmp;
using simd::Kernels;
using simd::RegenSpec;
using simd::Target;

/// Sizes that exercise sub-lane, exact-multiple, and ragged-tail paths for
/// every lane width in the tree (4, 8, 16) plus the 256-wide regen block.
const std::int64_t kSizes[] = {0,  1,  3,   4,   5,   7,   8,    9,   15,
                               16, 17, 31,  32,  33,  63,  64,   65,  67,
                               100, 255, 256, 257, 511, 513, 1000, 4099};

/// First-index values for the counter-based regen kernels: zero, small,
/// unaligned, and beyond 2^32 (the index math is 64-bit).
const std::uint64_t kFirsts[] = {0ULL, 1ULL, 17ULL, 1000000ULL,
                                 (1ULL << 40) + 5ULL};

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  std::vector<float> out(n);
  rng::Xorshift128 rng(seed);
  for (auto& v : out) v = rng.uniform(-2.0F, 2.0F);
  return out;
}

::testing::AssertionResult bitwise_equal(const std::vector<float>& a,
                                         const std::vector<float>& b,
                                         const std::string& what) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << what << ": size mismatch";
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << what << ": first bit difference at index " << i << ": "
               << a[i] << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult tensors_equal(const T::Tensor& a,
                                         const T::Tensor& b,
                                         const std::string& what) {
  if (a.numel() != b.numel()) {
    return ::testing::AssertionFailure() << what << ": numel mismatch";
  }
  if (a.numel() > 0 &&
      std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << what << ": bit difference";
  }
  return ::testing::AssertionSuccess();
}

/// (target, threads) conformance fixture. Restores scalar-free defaults —
/// best target, 1 thread — so test order never leaks state.
class SimdConformanceTest
    : public ::testing::TestWithParam<std::tuple<Target, int>> {
 protected:
  void SetUp() override {
    target_ = std::get<0>(GetParam());
    threads_ = std::get<1>(GetParam());
    util::set_num_threads(threads_);
    simd::set_target(target_);
  }
  void TearDown() override {
    simd::set_target(simd::best_target());
    util::set_num_threads(1);
  }

  const Kernels& k() const { return simd::kernels_for(target_); }
  const Kernels& ref() const { return simd::kScalarKernels; }

  /// Runs `fn` under scalar dispatch at 1 thread (the reference config),
  /// then restores this test's (target, threads).
  template <typename Fn>
  void as_reference(Fn&& fn) {
    simd::set_target(Target::kScalar);
    util::set_num_threads(1);
    fn();
    util::set_num_threads(threads_);
    simd::set_target(target_);
  }

  Target target_ = Target::kScalar;
  int threads_ = 1;
};

// --- layer 1: kernel tables vs the scalar reference ----------------------

TEST_P(SimdConformanceTest, GemmAccBitwiseEqual) {
  // Rows 1..kTileRows+1 hit every tile height (and 33 many tiles), columns
  // 1..40 every partial-vector tail of every lane width plus the conv1 (27),
  // conv2 (72) and MNIST (784) widths, and k = 300 crosses the 256-term
  // list chunk. A is read both row-major and transposed (the matmul_tn and
  // conv dX layouts), and either has no zero (full term lists) or ~40%
  // exact zeros (term lists of differing lengths). The
  // special inputs put NaN in A and ±inf/NaN in B, plus -0 in sparse A and
  // a zero factor over B's poisoned first row, where the exact skip must
  // hide it; C is a strided block with sentinels around it.
  const float inf = std::numeric_limits<float>::infinity();
  volatile float zero = 0.0F;
  // The NaN this host's arithmetic generates (inf * 0). Injecting that one
  // keeps every NaN identical, so no payload depends on which NaN operand
  // an add happens to propagate.
  const float nan = inf * zero;
  constexpr float kSentinel = -7.25F;
  std::vector<std::int64_t> cols;
  for (std::int64_t n = 1; n <= 40; ++n) cols.push_back(n);
  cols.push_back(72);
  cols.push_back(784);
  struct Shape {
    std::int64_t m, n, k;
  };
  std::vector<Shape> shapes;
  for (const std::int64_t m : {1, 2, 3, 4, 5}) {
    for (const std::int64_t n : cols) {
      for (const std::int64_t kdim : {0, 1, 7, 300}) {
        shapes.push_back({m, n, kdim});
      }
    }
  }
  for (const std::int64_t n : {27, 72}) shapes.push_back({33, n, 300});
  static_assert(simd::kTileRows + 1 == 5, "row sweep covers 1..kTileRows+1");
  for (const Shape& sh : shapes) {
    for (const bool transposed : {false, true}) {
      for (const int flavor : {0, 1, 2, 3}) {
        const bool zeros = (flavor & 1) != 0, special = (flavor & 2) != 0;
        const std::int64_t m = sh.m, n = sh.n, kdim = sh.k, ldc = n + 3;
        auto a = random_floats(static_cast<std::size_t>(m * kdim), 31);
        auto b = random_floats(static_cast<std::size_t>(kdim * n), 32);
        for (std::size_t i = 0; zeros && i < a.size(); ++i) {
          if ((i * 7919) % 5 < 2) a[i] = 0.0F;
        }
        if (special && kdim > 0) {
          for (std::size_t i = 0; i < a.size(); i += 3) {
            if (a[i] == 0.0F) a[i] = -0.0F;
          }
          a[a.size() / 2] = nan;
          if (zeros) a.front() = 0.0F;  // B's first row is poisoned below
          b.front() = nan;
          b[b.size() / 2] = inf;
          b[static_cast<std::size_t>(n - 1)] = -inf;
          b.back() = nan;
        }
        // A(i, l) = a[i*a_rs + l*a_cs], stored row-major or transposed.
        const std::int64_t a_rs = transposed ? 1 : kdim;
        const std::int64_t a_cs = transposed ? m : 1;
        std::vector<float> got(static_cast<std::size_t>(m * ldc + 1),
                               kSentinel);
        const auto init = random_floats(got.size(), 33);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            got[static_cast<std::size_t>(i * ldc + j)] =
                init[static_cast<std::size_t>(i * ldc + j)];
          }
        }
        auto want = got;
        k().gemm_acc(m, n, kdim, a.data(), a_rs, a_cs, b.data(), n,
                     got.data(), ldc);
        ref().gemm_acc(m, n, kdim, a.data(), a_rs, a_cs, b.data(), n,
                       want.data(), ldc);
        EXPECT_TRUE(bitwise_equal(
            got, want,
            "gemm_acc m=" + std::to_string(m) + " n=" + std::to_string(n) +
                " k=" + std::to_string(kdim) +
                (transposed ? " transposed" : "") +
                (zeros ? " zeros" : " dense") +
                (special ? " -0/inf/nan" : "")));
      }
    }
  }
}

TEST(GemmAccReference, SkipsZeroTermsExactly) {
  // The scalar reference is the contract the targets are held to: a ±0
  // factor must not touch C even when its B row holds inf or NaN, and a C
  // row whose factors are all zero keeps its bits (-0 stays -0).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float a[] = {0.0F, -0.0F, 2.0F,  // row 0: only l = 2 counts
                     0.0F, -0.0F, 0.0F};  // row 1: nothing counts
  const float b[] = {inf, -inf, nan,   // l = 0
                     nan, 1.0F, 1.0F,  // l = 1
                     0.5F, 0.25F, -0.0F};
  float c[] = {-0.0F, 1.0F, 3.0F, -0.0F, -0.0F, -0.0F};
  simd::kScalarKernels.gemm_acc(2, 3, 3, a, 3, 1, b, 3, c, 3);
  EXPECT_EQ(c[0], 1.0F);  // -0 + 2 * 0.5
  EXPECT_EQ(c[1], 1.5F);  // 1 + 2 * 0.25
  EXPECT_EQ(c[2], 3.0F);  // 3 + 2 * -0
  for (int j = 3; j < 6; ++j) {
    EXPECT_TRUE(c[j] == 0.0F && std::signbit(c[j])) << "column " << j - 3;
  }
}

/// A first index whose ranges straddle the 2^32-index segment boundary,
/// where the regen hash changes key, 5 indices before it (off the lanes).
constexpr std::uint64_t kStraddle = (1ULL << 32) - 5ULL;

TEST_P(SimdConformanceTest, RegenBitwiseEqual) {
  std::vector<std::uint64_t> firsts(std::begin(kFirsts), std::end(kFirsts));
  firsts.push_back(kStraddle);
  for (std::uint64_t seed : {0ULL, 42ULL, 0xDEADBEEFULL}) {
    for (std::uint64_t first : firsts) {
      for (std::int64_t n : kSizes) {
        const RegenSpec normal{1, 0.05F, seed};
        std::vector<float> got(static_cast<std::size_t>(n));
        std::vector<float> want(static_cast<std::size_t>(n));
        k().regen_fill(normal, first, n, got.data());
        ref().regen_fill(normal, first, n, want.data());
        EXPECT_TRUE(bitwise_equal(
            got, want, "regen_fill seed=" + std::to_string(seed) +
                           " first=" + std::to_string(first) +
                           " n=" + std::to_string(n)));
      }
    }
  }
  // Constant specs too (the BN-gamma/bias regeneration path).
  const RegenSpec constant{0, 1.0F, 0};
  std::vector<float> got(513), want(513);
  k().regen_fill(constant, 9, 513, got.data());
  ref().regen_fill(constant, 9, 513, want.data());
  EXPECT_TRUE(bitwise_equal(got, want, "regen_fill constant"));
}

TEST_P(SimdConformanceTest, RegenPackEqualsRegenFillThenTranspose) {
  // regen_pack against the scalar regen_fill + transpose it replaces on the
  // serving path: panel heights around every lane width and the 64-row
  // serving panel (ragged last vectors included), k = 1 and odd k, and
  // first indices whose panels straddle 2^32, where the hash changes key.
  // A sentinel past the panel shows any write beyond it.
  std::vector<std::uint64_t> firsts(std::begin(kFirsts), std::end(kFirsts));
  firsts.push_back(kStraddle);
  constexpr float kSentinel = -7.25F;
  for (const RegenSpec spec :
       {RegenSpec{1, 0.05F, 42ULL}, RegenSpec{0, 1.5F, 0ULL}}) {
    for (const std::uint64_t first : firsts) {
      for (const std::int64_t n : {1, 7, 8, 9, 13, 16, 17, 63, 64}) {
        for (const std::int64_t kdim : {1, 2, 3, 17, 784}) {
          std::vector<float> rows(static_cast<std::size_t>(n * kdim));
          ref().regen_fill(spec, first, n * kdim, rows.data());
          std::vector<float> want(rows.size());
          for (std::int64_t t = 0; t < n; ++t) {
            for (std::int64_t l = 0; l < kdim; ++l) {
              want[static_cast<std::size_t>(l * n + t)] =
                  rows[static_cast<std::size_t>(t * kdim + l)];
            }
          }
          std::vector<float> got(want.size() + 1, kSentinel);
          k().regen_pack(spec, first, n, kdim, got.data());
          EXPECT_EQ(got.back(), kSentinel) << "regen_pack wrote past the panel";
          got.pop_back();
          EXPECT_TRUE(bitwise_equal(
              got, want,
              "regen_pack kind=" + std::to_string(spec.kind) +
                  " first=" + std::to_string(first) +
                  " n=" + std::to_string(n) + " k=" + std::to_string(kdim)));
        }
      }
    }
  }
}

TEST_P(SimdConformanceTest, ScoreAndApplyBitwiseEqual) {
  for (const RegenSpec spec :
       {RegenSpec{1, 0.05F, 7ULL}, RegenSpec{0, 1.0F, 0ULL}}) {
    for (std::uint64_t first : {0ULL, 33ULL, (1ULL << 40) + 5ULL}) {
      for (std::int64_t n : kSizes) {
        const auto w = random_floats(static_cast<std::size_t>(n), 31);
        const auto g = random_floats(static_cast<std::size_t>(n), 32);
        std::vector<std::uint8_t> mask(static_cast<std::size_t>(n));
        rng::Xorshift128 mrng(33);
        for (auto& m : mask) m = (mrng.next_u32() & 3U) == 0U ? 1U : 0U;

        std::vector<float> got(static_cast<std::size_t>(n));
        std::vector<float> want(static_cast<std::size_t>(n));
        for (const float* grad : {g.data(), static_cast<const float*>(
                                                nullptr)}) {
          k().score(w.data(), grad, 0.1F, spec, first, n, got.data());
          ref().score(w.data(), grad, 0.1F, spec, first, n, want.data());
          EXPECT_TRUE(bitwise_equal(
              got, want, "score n=" + std::to_string(n) + " kind=" +
                             std::to_string(spec.kind) +
                             (grad == nullptr ? " nograd" : "")));

          for (bool regen : {true, false}) {
            auto got_w = w;
            auto want_w = w;
            const std::int64_t got_tracked =
                k().apply_masked(got_w.data(), grad, mask.data(), 0.1F, spec,
                                 regen, first, n);
            const std::int64_t want_tracked =
                ref().apply_masked(want_w.data(), grad, mask.data(), 0.1F,
                                   spec, regen, first, n);
            EXPECT_EQ(got_tracked, want_tracked)
                << "apply_masked tracked n=" << n;
            EXPECT_TRUE(bitwise_equal(
                got_w, want_w,
                "apply_masked n=" + std::to_string(n) + " kind=" +
                    std::to_string(spec.kind) +
                    (regen ? " regen" : " zero") +
                    (grad == nullptr ? " nograd" : "")));
          }

          auto got_w = w;
          auto want_w = w;
          EXPECT_EQ(
              k().update_tracked(got_w.data(), grad, mask.data(), 0.1F, n),
              ref().update_tracked(want_w.data(), grad, mask.data(), 0.1F, n))
              << "update_tracked tracked n=" << n;
          EXPECT_TRUE(bitwise_equal(
              got_w, want_w,
              "update_tracked n=" + std::to_string(n) +
                  (grad == nullptr ? " nograd" : "")));
        }
      }
    }
  }
}

TEST_P(SimdConformanceTest, TopkPrepassBitwiseEqual) {
  for (std::int64_t n : kSizes) {
    // Tie-heavy scores: each one of 4 values, so kEq/kGe find many hits.
    std::vector<float> s(static_cast<std::size_t>(n));
    rng::Xorshift128 rng(41);
    for (auto& v : s) v = 0.25F * static_cast<float>(rng.next_u32() % 4);
    for (Cmp cmp : {Cmp::kGt, Cmp::kGe, Cmp::kEq}) {
      EXPECT_EQ(k().count_cmp(s.data(), n, 0.5F, cmp),
                ref().count_cmp(s.data(), n, 0.5F, cmp))
          << "count_cmp n=" << n;
      for (std::int64_t max_out : {std::int64_t{0}, std::int64_t{3}, n,
                                   n + 5}) {
        std::vector<std::int64_t> got(static_cast<std::size_t>(
            std::max<std::int64_t>(max_out, 1)));
        auto want = got;
        const std::int64_t got_n =
            k().compact_cmp(s.data(), n, 0.5F, cmp, 1000, max_out,
                            got.data());
        const std::int64_t want_n =
            ref().compact_cmp(s.data(), n, 0.5F, cmp, 1000, max_out,
                              want.data());
        ASSERT_EQ(got_n, want_n) << "compact_cmp count n=" << n;
        got.resize(static_cast<std::size_t>(got_n));
        want.resize(static_cast<std::size_t>(want_n));
        EXPECT_EQ(got, want) << "compact_cmp indices n=" << n;
      }
    }
  }
}

TEST_P(SimdConformanceTest, BandGatherAndRemaskBitwiseEqual) {
  for (std::int64_t n : kSizes) {
    // Tie-heavy scores on an eight-value alphabet, so the band edges and
    // the remask threshold all land on ties.
    std::vector<float> s(static_cast<std::size_t>(n));
    rng::Xorshift128 rng(43);
    for (auto& v : s) v = 0.125F * static_cast<float>(rng.next_u32() % 8);
    for (const auto& [lo, hi] : {std::pair{0.25F, 0.5F},
                                 std::pair{0.3F, 0.3F},
                                 std::pair{0.0F, 0.875F}}) {
      for (std::int64_t max_out : {std::int64_t{0}, std::int64_t{3}, n}) {
        std::vector<float> got(static_cast<std::size_t>(
            std::max<std::int64_t>(max_out, 1)));
        auto want = got;
        const std::int64_t got_n =
            k().band_gather(s.data(), n, lo, hi, max_out, got.data());
        const std::int64_t want_n =
            ref().band_gather(s.data(), n, lo, hi, max_out, want.data());
        ASSERT_EQ(got_n, want_n) << "band_gather count n=" << n;
        got.resize(static_cast<std::size_t>(got_n));
        want.resize(static_cast<std::size_t>(want_n));
        EXPECT_TRUE(bitwise_equal(got, want,
                                  "band_gather n=" + std::to_string(n)));
      }
    }

    // Old masks with a third tracked, including bytes other than 1.
    std::vector<std::uint8_t> old_mask(static_cast<std::size_t>(n));
    for (auto& m : old_mask) {
      const std::uint32_t r = rng.next_u32() % 6;
      m = r < 2 ? static_cast<std::uint8_t>(r + 1) : 0U;
    }
    for (float threshold : {0.375F, 0.0F, 1.0F}) {
      for (std::int64_t cap : {std::int64_t{0}, std::int64_t{2}, n}) {
        auto got_mask = old_mask;
        auto want_mask = old_mask;
        std::vector<std::int64_t> got_left(
            static_cast<std::size_t>(std::max<std::int64_t>(cap, 1)), -1);
        auto want_left = got_left;
        const simd::MaskDelta got = k().remask(
            s.data(), n, threshold, got_mask.data(), 77, cap, got_left.data());
        const simd::MaskDelta want =
            ref().remask(s.data(), n, threshold, want_mask.data(), 77, cap,
                         want_left.data());
        const std::string tag = "remask n=" + std::to_string(n) +
                                " cap=" + std::to_string(cap);
        EXPECT_EQ(got.entered, want.entered) << tag;
        EXPECT_EQ(got.left, want.left) << tag;
        EXPECT_EQ(got_mask, want_mask) << tag;
        EXPECT_EQ(got_left, want_left) << tag;
      }
    }
  }
}

// --- layer 2: wired hot paths vs scalar @ 1 thread ------------------------

TEST_P(SimdConformanceTest, WiredMatmulFamily) {
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {1, 1, 1}, {1, 5, 3}, {17, 13, 29}, {64, 64, 64}, {33, 129, 65},
  };
  for (const auto& [m, kdim, n] : shapes) {
    T::Tensor a({m, kdim}), b({kdim, n});
    rng::Xorshift128 rng(51);
    for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = rng.uniform(-2, 2);
    for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = rng.uniform(-2, 2);
    const T::Tensor bt = T::transpose2d(b);
    const T::Tensor at = T::transpose2d(a);

    T::Tensor want, want_nt, want_tn;
    as_reference([&] {
      want = T::matmul(a, b);
      want_nt = T::matmul_nt(a, bt);
      want_tn = T::matmul_tn(at, b);
    });
    const std::string tag = std::to_string(m) + "x" + std::to_string(kdim) +
                            "x" + std::to_string(n);
    EXPECT_TRUE(tensors_equal(T::matmul(a, b), want, "matmul " + tag));
    EXPECT_TRUE(
        tensors_equal(T::matmul_nt(a, bt), want_nt, "matmul_nt " + tag));
    EXPECT_TRUE(
        tensors_equal(T::matmul_tn(at, b), want_tn, "matmul_tn " + tag));
  }
}

TEST_P(SimdConformanceTest, WiredConv2d) {
  T::Tensor x({3, 5, 9, 9}), w({4, 5, 3, 3}), b({4});
  rng::Xorshift128 rng(52);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-2, 2);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform(-2, 2);
  for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = rng.uniform(-2, 2);
  const T::Conv2dSpec spec{3, 3, 2, 1};

  T::Tensor want_y;
  T::Conv2dGrads want_g;
  T::Tensor gy;
  as_reference([&] {
    want_y = T::conv2d(x, w, b, spec);
    gy = T::Tensor(want_y.shape());
    for (std::int64_t i = 0; i < gy.numel(); ++i) gy[i] = rng.uniform(-1, 1);
    want_g = T::conv2d_backward(x, w, gy, spec, true);
  });

  EXPECT_TRUE(tensors_equal(T::conv2d(x, w, b, spec), want_y, "conv2d fwd"));
  const T::Conv2dGrads got = T::conv2d_backward(x, w, gy, spec, true);
  EXPECT_TRUE(tensors_equal(got.grad_weight, want_g.grad_weight, "conv dW"));
  EXPECT_TRUE(tensors_equal(got.grad_input, want_g.grad_input, "conv dX"));
  EXPECT_TRUE(tensors_equal(got.grad_bias, want_g.grad_bias, "conv db"));
}

TEST_P(SimdConformanceTest, WiredInitSpecFill) {
  const auto spec = rng::InitSpec::lecun(784, 7);
  for (std::int64_t n : {1LL, 65LL, 4099LL}) {
    std::vector<float> want(static_cast<std::size_t>(n));
    as_reference([&] { spec.fill(want.data(), want.size()); });
    std::vector<float> got(static_cast<std::size_t>(n));
    spec.fill(got.data(), got.size());
    EXPECT_TRUE(bitwise_equal(got, want, "InitSpec::fill n=" +
                                             std::to_string(n)));
    // fill_range must agree with per-index value_at at any offset.
    std::vector<float> ranged(static_cast<std::size_t>(n));
    spec.fill_range((1ULL << 33) + 11, ranged.data(), ranged.size());
    for (std::size_t i = 0; i < ranged.size(); ++i) {
      const float want_v = spec.value_at((1ULL << 33) + 11 + i);
      ASSERT_EQ(std::memcmp(&ranged[i], &want_v, sizeof(float)), 0)
          << "fill_range index " << i;
    }
  }
}

TEST_P(SimdConformanceTest, WiredScoreSelectApply) {
  // Whole-optimizer wiring: compute_scores + TrackedSet::select +
  // apply_update_and_mask over the paper MLP, 3 steps.
  const auto run = [] {
    auto model = nn::models::make_mnist_100_100(7);
    auto params = model->collect_parameters();
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(20000);
    core::DropBackOptimizer opt(params, 0.1F, config);
    rng::Xorshift128 rng(42);
    for (int s = 0; s < 3; ++s) {
      for (auto* p : params) {
        float* g = p->var.grad().data();
        for (std::int64_t i = 0; i < p->numel(); ++i) {
          g[i] = rng.uniform(-1, 1);
        }
      }
      opt.step();
    }
    std::vector<float> weights;
    for (auto* p : params) {
      const float* w = p->var.value().data();
      weights.insert(weights.end(), w, w + p->numel());
    }
    return weights;
  };
  std::vector<float> want;
  as_reference([&] { want = run(); });
  EXPECT_TRUE(bitwise_equal(run(), want, "DropBack trajectory"));
}

TEST_P(SimdConformanceTest, WiredTieHeavySelect) {
  nn::Sequential net;
  net.emplace<nn::Linear>(400, 500, 1);
  core::ParamIndex index(net.collect_parameters());
  rng::Xorshift128 rng(61);
  std::vector<float> scores(static_cast<std::size_t>(index.total()));
  for (auto& s : scores) s = 0.25F * static_cast<float>(rng.next_u32() % 4);

  const auto masks_of = [&](core::TrackedSet& set) {
    std::vector<std::uint8_t> flat;
    for (std::size_t p = 0; p < index.num_params(); ++p) {
      const std::uint8_t* m = set.mask_of(p);
      flat.insert(flat.end(), m, m + index.param(p).numel());
    }
    return flat;
  };

  for (std::int64_t kbudget : {std::int64_t{1}, std::int64_t{5000},
                               std::int64_t{123457}}) {
    std::vector<std::uint8_t> want;
    float want_lambda = 0.0F;
    as_reference([&] {
      core::TrackedSet set(index);
      set.select(scores, kbudget);
      want = masks_of(set);
      want_lambda = set.last_lambda();
    });
    core::TrackedSet set(index);
    set.select(scores, kbudget);
    EXPECT_EQ(masks_of(set), want) << "select k=" << kbudget;
    EXPECT_EQ(set.last_lambda(), want_lambda) << "lambda k=" << kbudget;
  }
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<Target, int>>& info) {
  return std::string(simd::target_name(std::get<0>(info.param))) + "_t" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, SimdConformanceTest,
    ::testing::Combine(::testing::ValuesIn(simd::available_targets()),
                       ::testing::Values(1, 2, 7)),
    param_name);

}  // namespace
}  // namespace dropback
