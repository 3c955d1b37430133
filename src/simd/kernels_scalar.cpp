// Scalar reference backend. These functions define the bitwise semantics of
// every kernel: they are transliterations of the loops they replaced
// (matmul.cpp row updates, InitSpec::value_at regeneration,
// accumulated_gradients scoring, the optimizer's masked sweep), and every
// vector backend must reproduce them exactly — full vectors via the lane
// rules in vec.hpp, tails by calling straight into this file.
//
// This TU is compiled with -ffp-contract=off like the vector backends, so
// the compiler cannot fuse any multiply-add here either: the reference
// itself is FMA-free.
#include <cmath>
#include <cstdint>

#include "rng/xorshift.hpp"
#include "simd/kernels.hpp"

namespace dropback::simd {
namespace detail {

void gemm_nt(const float* a, std::int64_t rows, const float* packed,
             std::int64_t k, std::int64_t n, float* c) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* arow = a + i * k;
    for (std::int64_t j0 = 0; j0 < n; j0 += kPackWidth) {
      const float* group = packed + j0 * k;
      double acc[kPackWidth] = {};
      for (std::int64_t l = 0; l < k; ++l) {
        // Float product, double accumulation — matmul_nt's exact sequence.
#pragma GCC unroll 8
        for (std::int64_t t = 0; t < kPackWidth; ++t) {
          acc[t] += arow[l] * group[l * kPackWidth + t];
        }
      }
      for (std::int64_t t = 0; t < kPackWidth && j0 + t < n; ++t) {
        c[i * n + j0 + t] = static_cast<float>(acc[t]);
      }
    }
  }
}

void gemm_acc(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              std::int64_t a_rs, std::int64_t a_cs, const float* b,
              std::int64_t ldb, float* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = a[i * a_rs + l * a_cs];
      // dbk-lint: allow(R5): the exact-zero skip is part of the contract
      if (av == 0.0F) continue;
      const float* brow = b + l * ldb;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// InitSpec::value_at semantics for a RegenSpec.
static inline float regen_value(const RegenSpec& spec, std::uint64_t index) {
  if (spec.kind == 0) return spec.scale;
  return spec.scale * rng::indexed_normal_fast(spec.seed, index);
}

void regen_fill(RegenSpec spec, std::uint64_t first, std::int64_t n,
                float* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = regen_value(spec, first + static_cast<std::uint64_t>(i));
  }
}

void regen_pack(RegenSpec spec, std::uint64_t first, std::int64_t n,
                std::int64_t k, float* packed) {
  for (std::int64_t g = 0; g * kPackWidth < n; ++g) {
    float* group = packed + g * kPackWidth * k;
    for (std::int64_t l = 0; l < k; ++l) {
      for (std::int64_t t = 0; t < kPackWidth; ++t) {
        const std::int64_t row = g * kPackWidth + t;
        group[l * kPackWidth + t] =
            row < n ? regen_value(spec, first + static_cast<std::uint64_t>(
                                                    row * k + l))
                    : 0.0F;
      }
    }
  }
}

void score(const float* w, const float* g, float lr, RegenSpec spec,
           std::uint64_t first, std::int64_t n, float* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float updated = g != nullptr ? w[i] - lr * g[i] : w[i];
    const float ref = regen_value(spec, first + static_cast<std::uint64_t>(i));
    out[i] = std::fabs(updated - ref);
  }
}

std::int64_t apply_masked(float* w, const float* g, const std::uint8_t* mask,
                          float lr, RegenSpec spec, bool regen,
                          std::uint64_t first, std::int64_t n) {
  std::int64_t tracked = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (mask[i] != 0U) {
      if (g != nullptr) w[i] -= lr * g[i];
      ++tracked;
    } else if (regen) {
      w[i] = regen_value(spec, first + static_cast<std::uint64_t>(i));
    } else {
      w[i] = 0.0F;
    }
  }
  return tracked;
}

std::int64_t update_tracked(float* w, const float* g,
                            const std::uint8_t* mask, float lr,
                            std::int64_t n) {
  std::int64_t tracked = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (mask[i] == 0U) continue;
    if (g != nullptr) w[i] -= lr * g[i];
    ++tracked;
  }
  return tracked;
}

static inline bool cmp_ok(float v, float threshold, Cmp cmp) {
  switch (cmp) {
    case Cmp::kGt:
      return v > threshold;
    case Cmp::kGe:
      return v >= threshold;
    case Cmp::kEq:
      break;
  }
  return v == threshold;
}

std::int64_t count_cmp(const float* s, std::int64_t n, float threshold,
                       Cmp cmp) {
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (cmp_ok(s[i], threshold, cmp)) ++count;
  }
  return count;
}

std::int64_t compact_cmp(const float* s, std::int64_t n, float threshold,
                         Cmp cmp, std::int64_t base, std::int64_t max_out,
                         std::int64_t* out) {
  std::int64_t written = 0;
  for (std::int64_t i = 0; i < n && written < max_out; ++i) {
    if (cmp_ok(s[i], threshold, cmp)) out[written++] = base + i;
  }
  return written;
}

std::int64_t band_gather(const float* s, std::int64_t n, float lo, float hi,
                         std::int64_t max_out, float* out) {
  std::int64_t written = 0;
  for (std::int64_t i = 0; i < n && written < max_out; ++i) {
    if (s[i] >= lo && s[i] <= hi) out[written++] = s[i];
  }
  return written;
}

MaskDelta remask(const float* s, std::int64_t n, float threshold,
                 std::uint8_t* mask, std::int64_t base, std::int64_t left_cap,
                 std::int64_t* left_out) {
  MaskDelta delta{0, 0};
  for (std::int64_t i = 0; i < n; ++i) {
    const bool now = s[i] > threshold;
    if (now == (mask[i] != 0U)) continue;
    mask[i] = now ? 1U : 0U;
    if (now) {
      ++delta.entered;
    } else {
      if (delta.left < left_cap) left_out[delta.left] = base + i;
      ++delta.left;
    }
  }
  return delta;
}

}  // namespace detail

const Kernels kScalarKernels = {
    "scalar",
    &detail::gemm_nt,
    &detail::gemm_acc,
    &detail::regen_fill,
    &detail::regen_pack,
    &detail::score,
    &detail::apply_masked,
    &detail::update_tracked,
    &detail::count_cmp,
    &detail::compact_cmp,
    &detail::band_gather,
    &detail::remask,
};

}  // namespace dropback::simd
