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

namespace {

/// InitSpec::value_at semantics for a RegenSpec, for indices in any order:
/// the segment key (rng::indexed_key, a splitmix64) is computed once per
/// 2^32-index segment and reused while the indices stay in it, which is
/// bitwise rng::indexed_normal_fast.
class Regen {
 public:
  explicit Regen(const RegenSpec& spec) : spec_(spec) {}

  float at(std::uint64_t index) {
    if (spec_.kind == 0) return spec_.scale;
    if (!keyed_ || index >> 32 != segment_) {
      key_ = rng::indexed_key(spec_.seed, index);
      segment_ = index >> 32;
      keyed_ = true;
    }
    return spec_.scale *
           rng::clt_normal(rng::indexed_mix(
               static_cast<std::uint32_t>(index) * rng::kIndexWeyl ^ key_));
  }

 private:
  RegenSpec spec_;
  bool keyed_ = false;
  std::uint64_t segment_ = 0;
  std::uint32_t key_ = 0;
};

}  // namespace

void regen_fill(RegenSpec spec, std::uint64_t first, std::int64_t n,
                float* out) {
  Regen regen(spec);
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = regen.at(first + static_cast<std::uint64_t>(i));
  }
}

void regen_pack(RegenSpec spec, std::uint64_t first, std::int64_t n,
                std::int64_t k, float* panel) {
  Regen regen(spec);
  for (std::int64_t t = 0; t < n; ++t) {
    for (std::int64_t l = 0; l < k; ++l) {
      panel[l * n + t] =
          regen.at(first + static_cast<std::uint64_t>(t * k + l));
    }
  }
}

void score(const float* w, const float* g, float lr, RegenSpec spec,
           std::uint64_t first, std::int64_t n, float* out) {
  Regen regen(spec);
  for (std::int64_t i = 0; i < n; ++i) {
    const float updated = g != nullptr ? w[i] - lr * g[i] : w[i];
    const float ref = regen.at(first + static_cast<std::uint64_t>(i));
    out[i] = std::fabs(updated - ref);
  }
}

std::int64_t apply_masked(float* w, const float* g, const std::uint8_t* mask,
                          float lr, RegenSpec spec, bool regen,
                          std::uint64_t first, std::int64_t n) {
  Regen replacement(spec);
  std::int64_t tracked = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (mask[i] != 0U) {
      if (g != nullptr) w[i] -= lr * g[i];
      ++tracked;
    } else if (regen) {
      w[i] = replacement.at(first + static_cast<std::uint64_t>(i));
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
