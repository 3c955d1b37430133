// The SIMD kernel table: one struct of function pointers per dispatch
// target (scalar / SSE4.2 / AVX2 / AVX-512 / NEON), covering the four
// kernel families the training loop spends its time in:
//
//   gemm   — the float-chain accumulate C += A·B with its exact zero
//            skip, behind every product: matmul, matmul_tn, matmul_nt, the
//            conv2d forward and both backward products, and serving;
//   regen  — batched counter-hash regeneration (rng::indexed_u32 on
//            4/8/16 u32 lanes) behind rng::InitSpec and the
//            sparse-store/inference regen paths;
//   score  — fused regen + |w - lr*g - w0| scoring, the masked
//            update/regenerate sweep of the DropBack step and the
//            tracked-only update;
//   top-k  — threshold count / order-preserving compact, the band gather
//            and the fused mask pass of the top-k selection.
//
// Determinism contract (docs/SIMD.md): every entry of every target's table
// is BITWISE IDENTICAL to the scalar reference in `detail` below, for all
// inputs. Vectorize across outputs, never across one output's chain: each
// output's operation order must match the scalar code exactly, so
// gemm_acc's float chain over l keeps one accumulator per output and walks
// l ascending on every target.
// tests/simd_equivalence_test.cpp enforces this per (kernel x target x
// thread count).
#pragma once

#include <cstdint>

namespace dropback::simd {

/// Regeneration recipe mirroring rng::InitSpec (kind 0 = constant, kind 1 =
/// scaled normal). A plain POD so kernel tables need no rng dependency.
struct RegenSpec {
  int kind;            ///< 0 = constant, 1 = scaled normal
  float scale;         ///< constant value, or normal sigma
  std::uint64_t seed;  ///< counter-hash seed (scaled normal only)
};

/// Comparison flavor for the top-k prepass kernels. Semantics are the C++
/// operators (ordered; NaN compares false, +inf compares normally).
enum class Cmp : int { kGt, kGe, kEq };

/// What one fused mask pass (Kernels::remask) changed.
struct MaskDelta {
  std::int64_t entered;  ///< entries that turned tracked
  std::int64_t left;     ///< entries that turned untracked
};

/// Rows of C per register tile of gemm_acc.
inline constexpr std::int64_t kTileRows = 4;

struct Kernels {
  const char* name;

  // --- gemm family -------------------------------------------------------
  /// C += A·B for an m x n block of C: with A(i, l) = a[i*a_rs + l*a_cs],
  /// each output runs the float chain c = c + A(i, l) * b[l*ldb + j] over
  /// l ascending, and a term whose A(i, l) == 0 (either sign) is skipped
  /// exactly, whatever B holds there (inf, NaN). NaN in A is a term like
  /// any other. C rows have stride ldc; only the m x n block is touched.
  void (*gemm_acc)(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, std::int64_t a_rs, std::int64_t a_cs,
                   const float* b, std::int64_t ldb, float* c,
                   std::int64_t ldc);

  // --- regen family ------------------------------------------------------
  /// out[i] = InitSpec{spec}.value_at(first + i): spec.scale for constant
  /// specs, spec.scale * indexed_normal_fast(seed, first+i) otherwise.
  void (*regen_fill)(RegenSpec spec, std::uint64_t first, std::int64_t n,
                     float* out);
  /// Rows [0, n) of the row-major [n, k] block that starts at flat index
  /// `first`, regenerated transposed — gemm_acc's B layout for x·Wᵀ:
  /// panel[l*n + t] = value_at(first + t*k + l). Writes exactly n * k
  /// floats, the bytes regen_fill + tensor::transpose2d produce.
  void (*regen_pack)(RegenSpec spec, std::uint64_t first, std::int64_t n,
                     std::int64_t k, float* panel);

  // --- score / apply family ----------------------------------------------
  /// out[i] = |(g ? w[i] - lr*g[i] : w[i]) - regen(first + i)| — the fused
  /// DropBack scoring map. g may be null.
  void (*score)(const float* w, const float* g, float lr, RegenSpec spec,
                std::uint64_t first, std::int64_t n, float* out);
  /// The masked update/regenerate sweep: tracked weights (mask nonzero) get
  /// w -= lr*g, untracked are regenerated (regen) or zeroed (!regen).
  /// Returns the number of tracked weights in the range. g may be null.
  std::int64_t (*apply_masked)(float* w, const float* g,
                               const std::uint8_t* mask, float lr,
                               RegenSpec spec, bool regen, std::uint64_t first,
                               std::int64_t n);
  /// The tracked-only update: w -= lr*g where mask is nonzero; untracked
  /// weights are not touched. Returns the number of tracked weights in the
  /// range. g may be null (then no weight changes).
  std::int64_t (*update_tracked)(float* w, const float* g,
                                 const std::uint8_t* mask, float lr,
                                 std::int64_t n);

  // --- top-k prepass family ----------------------------------------------
  /// Number of i in [0, n) with cmp(s[i], threshold).
  std::int64_t (*count_cmp)(const float* s, std::int64_t n, float threshold,
                            Cmp cmp);
  /// Order-preserving compaction: appends base+i for every i (ascending)
  /// with cmp(s[i], threshold), stopping after max_out hits. Returns the
  /// number written.
  std::int64_t (*compact_cmp)(const float* s, std::int64_t n, float threshold,
                              Cmp cmp, std::int64_t base, std::int64_t max_out,
                              std::int64_t* out);
  /// Band gather: appends s[i] for every i (ascending) with
  /// lo <= s[i] <= hi, stopping after max_out hits. Returns the number
  /// written.
  std::int64_t (*band_gather)(const float* s, std::int64_t n, float lo,
                              float hi, std::int64_t max_out, float* out);
  /// The fused mask pass: entry i becomes tracked iff s[i] > threshold.
  /// Only bytes whose tracked-ness (nonzero) changes are written, as 1 or
  /// 0. Appends base+i (ascending) of the entries that turned untracked to
  /// left_out, up to left_cap of them; the returned counts are complete.
  MaskDelta (*remask)(const float* s, std::int64_t n, float threshold,
                      std::uint8_t* mask, std::int64_t base,
                      std::int64_t left_cap, std::int64_t* left_out);
};

namespace detail {
// Scalar reference implementations. These ARE the semantics: the vector
// backends funnel most tails through them and must match them bitwise on
// full vectors too. Addressable as plain functions so backend tables can
// reference them without static-init-order concerns.
void gemm_acc(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              std::int64_t a_rs, std::int64_t a_cs, const float* b,
              std::int64_t ldb, float* c, std::int64_t ldc);
void regen_fill(RegenSpec spec, std::uint64_t first, std::int64_t n,
                float* out);
void regen_pack(RegenSpec spec, std::uint64_t first, std::int64_t n,
                std::int64_t k, float* panel);
void score(const float* w, const float* g, float lr, RegenSpec spec,
           std::uint64_t first, std::int64_t n, float* out);
std::int64_t apply_masked(float* w, const float* g, const std::uint8_t* mask,
                          float lr, RegenSpec spec, bool regen,
                          std::uint64_t first, std::int64_t n);
std::int64_t update_tracked(float* w, const float* g,
                            const std::uint8_t* mask, float lr,
                            std::int64_t n);
std::int64_t count_cmp(const float* s, std::int64_t n, float threshold,
                       Cmp cmp);
std::int64_t compact_cmp(const float* s, std::int64_t n, float threshold,
                         Cmp cmp, std::int64_t base, std::int64_t max_out,
                         std::int64_t* out);
std::int64_t band_gather(const float* s, std::int64_t n, float lo, float hi,
                         std::int64_t max_out, float* out);
MaskDelta remask(const float* s, std::int64_t n, float threshold,
                 std::uint8_t* mask, std::int64_t base, std::int64_t left_cap,
                 std::int64_t* left_out);
}  // namespace detail

/// Per-target tables. Only the targets compiled for this architecture are
/// defined; dispatch.cpp is the single consumer of these externs.
extern const Kernels kScalarKernels;
#if defined(__x86_64__)
extern const Kernels kSse4Kernels;
extern const Kernels kAvx2Kernels;
extern const Kernels kAvx512Kernels;
#endif
#if defined(__aarch64__)
extern const Kernels kNeonKernels;
#endif

}  // namespace dropback::simd
