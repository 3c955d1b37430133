// Kernel bodies, templated over a vec.hpp trait struct. Each backend TU
// instantiates these once (`impl::gemm_acc<vec::Avx2>` etc.) and lists the
// instantiations in its Kernels table.
//
// Shared structure of every kernel: a vector main loop over full lanes,
// then a tail delegated to the scalar reference in simd::detail — so the
// tail is bitwise-correct by construction and the vector loop only has to
// match the scalar code on full vectors (the per-lane operation sequences
// documented in vec.hpp take care of that). gemm_acc and regen_pack are
// the exception: their row tails are shorter register tiles or vector
// columns, and their column tails use partial loads and stores, so they
// have no scalar tail.
#pragma once

#include <cstdint>

#include "rng/xorshift.hpp"
#include "simd/kernels.hpp"
#include "simd/vec.hpp"

namespace dropback::simd::impl {

/// dst[i] = value — regen_fill's constant-spec path.
template <class B>
void fill(float* dst, float value, std::int64_t n) {
  const typename B::VF v = B::fset1(value);
  std::int64_t i = 0;
  for (; i + B::kF32 <= n; i += B::kF32) B::fstore(dst + i, v);
  for (; i < n; ++i) dst[i] = value;
}

/// Lanes [start + 0*step, start + 1*step, ...), wrapping mod 2^32.
template <class B>
inline typename B::VI iramp(std::uint32_t start, std::uint32_t step) {
  std::uint32_t lanes[B::kF32];
  for (int t = 0; t < B::kF32; ++t) {
    lanes[t] = start + static_cast<std::uint32_t>(t) * step;
  }
  return B::iload(lanes);
}

/// rng::indexed_u32 on u32 lanes, given each lane's Weyl term
/// lo32(index) * rng::kIndexWeyl and its segment's key: rng::indexed_mix
/// step for step, so every lane is bitwise the scalar draw.
template <class B>
inline typename B::VI mix(typename B::VI weyl, typename B::VI key) {
  using VI = typename B::VI;
  VI x = B::ixor(weyl, key);
  x = B::ixor(x, B::template isrl<16>(x));
  x = B::imul(x, B::iset1(rng::kMixMul1));
  x = B::ixor(x, B::template isrl<15>(x));
  x = B::imul(x, B::iset1(rng::kMixMul2));
  return B::ixor(x, B::template isrl<16>(x));
}

/// scale * indexed_normal_fast for hash lanes h: exactly
/// scale * rng::clt_normal(h), two separate multiplies, matching
/// InitSpec::value_at's rounding.
template <class B>
inline typename B::VF normal(typename B::VI h, typename B::VF scale) {
  const typename B::VF t =
      B::fmul(B::fsub(B::byte_sum(h), B::fset1(510.0F)),
              B::fset1(rng::kCltInvStddev));
  return B::fmul(scale, t);
}

/// Indices left in `index`'s 2^32-index segment, the span one key covers.
inline std::uint64_t segment_left(std::uint64_t index) {
  return (std::uint64_t{1} << 32) - (index & 0xFFFFFFFFULL);
}

template <class B>
void regen_fill(RegenSpec spec, std::uint64_t first, std::int64_t n,
                float* out) {
  if (spec.kind == 0) {
    fill<B>(out, spec.scale, n);
    return;
  }
  using VI = typename B::VI;
  const typename B::VF scale = B::fset1(spec.scale);
  const VI step = B::iset1(static_cast<std::uint32_t>(B::kF32) *
                           rng::kIndexWeyl);
  std::int64_t i = 0;
  while (i < n) {
    // One segment at a time: one key, and low index words that never wrap.
    const std::uint64_t index = first + static_cast<std::uint64_t>(i);
    const std::uint64_t left = segment_left(index);
    const std::int64_t end =
        static_cast<std::uint64_t>(n - i) <= left
            ? n
            : i + static_cast<std::int64_t>(left);
    const VI key = B::iset1(rng::indexed_key(spec.seed, index));
    VI weyl = iramp<B>(static_cast<std::uint32_t>(index) * rng::kIndexWeyl,
                       rng::kIndexWeyl);
    for (; i + B::kF32 <= end; i += B::kF32) {
      B::fstore(out + i, normal<B>(mix<B>(weyl, key), scale));
      weyl = B::iadd(weyl, step);
    }
    if (i < end) {
      detail::regen_fill(spec, first + static_cast<std::uint64_t>(i), end - i,
                         out + i);
      i = end;
    }
  }
}

/// regen_fill straight into the transposed panel: panel[l*n + t] =
/// value_at(first + t*k + l). A vector holds kF32 consecutive rows t of one
/// l, so its lanes are an index ramp of stride k, and each step in l adds
/// one to every index — kIndexWeyl to every Weyl term. Lanes past n are
/// computed and never stored.
template <class B>
void regen_pack(RegenSpec spec, std::uint64_t first, std::int64_t n,
                std::int64_t k, float* panel) {
  if (spec.kind == 0 || n == 0 || k == 0 ||
      segment_left(first) < static_cast<std::uint64_t>(n * k)) {
    // Constant specs, and panels whose indices cross a 2^32 boundary,
    // where the key changes.
    detail::regen_pack(spec, first, n, k, panel);
    return;
  }
  using VI = typename B::VI;
  const typename B::VF scale = B::fset1(spec.scale);
  const VI key = B::iset1(rng::indexed_key(spec.seed, first));
  const VI step = B::iset1(rng::kIndexWeyl);
  for (std::int64_t t = 0; t < n; t += B::kF32) {
    const int cnt = static_cast<int>(n - t < B::kF32 ? n - t : B::kF32);
    VI weyl = iramp<B>(static_cast<std::uint32_t>(
                           first + static_cast<std::uint64_t>(t * k)) *
                           rng::kIndexWeyl,
                       static_cast<std::uint32_t>(k) * rng::kIndexWeyl);
    float* out = panel + t;
    for (std::int64_t l = 0; l < k; ++l, out += n) {
      const typename B::VF value = normal<B>(mix<B>(weyl, key), scale);
      if (cnt == B::kF32) {
        B::fstore(out, value);
      } else {
        B::fstore_part(out, value, cnt);
      }
      weyl = B::iadd(weyl, step);
    }
  }
}

/// Regen block size for the fused score/apply kernels: large enough to
/// amortize the regen setup, small enough to stay in L1.
inline constexpr std::int64_t kRegenBlock = 256;

template <class B>
void score(const float* w, const float* g, float lr, RegenSpec spec,
           std::uint64_t first, std::int64_t n, float* out) {
  static_assert(kRegenBlock % 64 == 0, "block must cover whole vectors");
  float rbuf[kRegenBlock];
  const typename B::VF lrv = B::fset1(lr);
  const typename B::VF cv = B::fset1(spec.scale);
  std::int64_t i = 0;
  for (; i + kRegenBlock <= n; i += kRegenBlock) {
    const bool use_buf = spec.kind != 0;
    if (use_buf) regen_fill<B>(spec, first + i, kRegenBlock, rbuf);
    for (std::int64_t j = 0; j < kRegenBlock; j += B::kF32) {
      const typename B::VF wv = B::fload(w + i + j);
      const typename B::VF upd =
          g != nullptr ? B::fsub(wv, B::fmul(lrv, B::fload(g + i + j))) : wv;
      const typename B::VF ref = use_buf ? B::fload(rbuf + j) : cv;
      B::fstore(out + i + j, B::fabs_(B::fsub(upd, ref)));
    }
  }
  if (i < n) {
    detail::score(w + i, g != nullptr ? g + i : nullptr, lr, spec, first + i,
                  n - i, out + i);
  }
}

template <class B>
std::int64_t apply_masked(float* w, const float* g, const std::uint8_t* mask,
                          float lr, RegenSpec spec, bool regen,
                          std::uint64_t first, std::int64_t n) {
  float rbuf[kRegenBlock];
  const typename B::VF lrv = B::fset1(lr);
  const typename B::VF repl_const = B::fset1(regen ? spec.scale : 0.0F);
  const bool use_buf = regen && spec.kind != 0;
  std::int64_t tracked = 0;
  std::int64_t i = 0;
  for (; i + kRegenBlock <= n; i += kRegenBlock) {
    if (use_buf) regen_fill<B>(spec, first + i, kRegenBlock, rbuf);
    for (std::int64_t j = 0; j < kRegenBlock; j += B::kF32) {
      const typename B::VM tracked_m = B::mask_nonzero_bytes(mask + i + j);
      const typename B::VF wv = B::fload(w + i + j);
      const typename B::VF upd =
          g != nullptr ? B::fsub(wv, B::fmul(lrv, B::fload(g + i + j))) : wv;
      const typename B::VF repl = use_buf ? B::fload(rbuf + j) : repl_const;
      B::fstore(w + i + j, B::select(tracked_m, upd, repl));
      tracked += B::count(tracked_m);
    }
  }
  if (i < n) {
    tracked += detail::apply_masked(w + i, g != nullptr ? g + i : nullptr,
                                    mask + i, lr, spec, regen, first + i,
                                    n - i);
  }
  return tracked;
}

template <class B>
std::int64_t update_tracked(float* w, const float* g, const std::uint8_t* mask,
                            float lr, std::int64_t n) {
  const typename B::VF lrv = B::fset1(lr);
  std::int64_t tracked = 0;
  std::int64_t i = 0;
  for (; i + B::kF32 <= n; i += B::kF32) {
    const typename B::VM tracked_m = B::mask_nonzero_bytes(mask + i);
    const int hits = B::count(tracked_m);
    if (hits == 0) continue;
    tracked += hits;
    if (g == nullptr) continue;
    const typename B::VF wv = B::fload(w + i);
    B::fstore(w + i, B::select(tracked_m,
                               B::fsub(wv, B::fmul(lrv, B::fload(g + i))),
                               wv));
  }
  if (i < n) {
    tracked += detail::update_tracked(w + i, g != nullptr ? g + i : nullptr,
                                      mask + i, lr, n - i);
  }
  return tracked;
}

template <class B>
std::int64_t count_cmp(const float* s, std::int64_t n, float threshold,
                       Cmp cmp) {
  const typename B::VF tv = B::fset1(threshold);
  std::int64_t count = 0;
  std::int64_t i = 0;
  for (; i + B::kF32 <= n; i += B::kF32) {
    count += B::count(B::cmp(B::fload(s + i), tv, cmp));
  }
  if (i < n) count += detail::count_cmp(s + i, n - i, threshold, cmp);
  return count;
}

template <class B>
std::int64_t compact_cmp(const float* s, std::int64_t n, float threshold,
                         Cmp cmp, std::int64_t base, std::int64_t max_out,
                         std::int64_t* out) {
  const typename B::VF tv = B::fset1(threshold);
  std::int64_t written = 0;
  std::int64_t i = 0;
  for (; i + B::kF32 <= n; i += B::kF32) {
    unsigned hits = B::bits(B::cmp(B::fload(s + i), tv, cmp));
    while (hits != 0U) {
      if (written == max_out) return written;
      const int lane = __builtin_ctz(hits);
      out[written++] = base + i + lane;
      hits &= hits - 1U;
    }
  }
  if (i < n && written < max_out) {
    written += detail::compact_cmp(s + i, n - i, threshold, cmp, base + i,
                                   max_out - written, out + written);
  }
  return written;
}

template <class B>
std::int64_t band_gather(const float* s, std::int64_t n, float lo, float hi,
                         std::int64_t max_out, float* out) {
  const typename B::VF lov = B::fset1(lo);
  const typename B::VF hiv = B::fset1(hi);
  std::int64_t written = 0;
  std::int64_t i = 0;
  for (; i + B::kF32 <= n; i += B::kF32) {
    const typename B::VF v = B::fload(s + i);
    // hi >= v is v <= hi, NaN included (both false).
    unsigned hits =
        B::bits(B::cmp(v, lov, Cmp::kGe)) & B::bits(B::cmp(hiv, v, Cmp::kGe));
    while (hits != 0U) {
      if (written == max_out) return written;
      out[written++] = s[i + __builtin_ctz(hits)];
      hits &= hits - 1U;
    }
  }
  if (i < n && written < max_out) {
    written += detail::band_gather(s + i, n - i, lo, hi, max_out - written,
                                   out + written);
  }
  return written;
}

template <class B>
MaskDelta remask(const float* s, std::int64_t n, float threshold,
                 std::uint8_t* mask, std::int64_t base, std::int64_t left_cap,
                 std::int64_t* left_out) {
  const typename B::VF tv = B::fset1(threshold);
  MaskDelta delta{0, 0};
  std::int64_t i = 0;
  for (; i + B::kF32 <= n; i += B::kF32) {
    const unsigned now = B::bits(B::cmp(B::fload(s + i), tv, Cmp::kGt));
    const unsigned was = B::bits(B::mask_nonzero_bytes(mask + i));
    unsigned changed = now ^ was;
    if (changed == 0U) continue;  // the common case: churn is sparse
    delta.entered += __builtin_popcount(changed & now);
    for (unsigned off = changed & was; off != 0U; off &= off - 1U) {
      if (delta.left < left_cap) {
        left_out[delta.left] = base + i + __builtin_ctz(off);
      }
      ++delta.left;
    }
    for (; changed != 0U; changed &= changed - 1U) {
      const int lane = __builtin_ctz(changed);
      mask[i + lane] = static_cast<std::uint8_t>((now >> lane) & 1U);
    }
  }
  if (i < n) {
    const std::int64_t listed = delta.left < left_cap ? delta.left : left_cap;
    const MaskDelta tail =
        detail::remask(s + i, n - i, threshold, mask + i, base + i,
                       left_cap - listed, left_out + listed);
    delta.entered += tail.entered;
    delta.left += tail.left;
  }
  return delta;
}

/// Terms per gemm_acc chunk: the span of l one row tile's term lists
/// cover. C is stored between chunks, which keeps every bit — the chain is
/// a float chain, so the accumulator is exactly what C holds.
inline constexpr std::int64_t kAccChunk = 256;

/// One row of A over a chunk, reduced to its nonzero terms in l order: the
/// factor and the B row it scales. Building the list is where the exact
/// zero skip happens, so the tile's inner loop has no test in it.
struct AccTerms {
  float a[kAccChunk];
  const float* b[kAccChunk];
  std::int64_t len;
};

inline void collect_terms(const float* arow, std::int64_t a_cs,
                          const float* b, std::int64_t ldb, std::int64_t l0,
                          std::int64_t l1, AccTerms& terms) {
  std::int64_t len = 0;
  for (std::int64_t l = l0; l < l1; ++l) {
    const float av = arow[l * a_cs];
    terms.a[len] = av;
    terms.b[len] = b + l * ldb;
    // dbk-lint: allow(R5): the exact-zero skip is part of the contract
    len += av != 0.0F ? 1 : 0;
  }
  terms.len = len;
}

/// Vectors per gemm_acc tile row: 4 x 4 accumulators suit the 32 registers
/// of AVX-512, 4 x 2 the 16 of SSE4/AVX2 (NEON keeps the smaller tile).
template <class B>
inline constexpr int kAccVecs = B::kF32 == 16 ? 4 : 2;

/// R rows x kAccVecs vectors of gemm_acc's C from column j: one float
/// chain per lane. The rows walk their terms in lockstep while every row
/// has terms left, then each row finishes alone; either way each output
/// sees its terms in l order. With Last, only the first `nv` vectors are
/// live and vector nv - 1 holds `tail` columns (partial load/store).
template <class B, int R, bool Last>
void gemm_acc_tile(const AccTerms* terms, std::int64_t j, float* c,
                   std::int64_t ldc, int nv, int tail) {
  using VF = typename B::VF;
  constexpr int NV = kAccVecs<B>;
  const auto live = [nv](int v) { return !Last || v < nv; };
  const auto load = [nv, tail](const float* p, int v) {
    return Last && v == nv - 1 ? B::fload_part(p + v * B::kF32, tail)
                               : B::fload(p + v * B::kF32);
  };
  const auto add_term = [&](VF* row_acc, float a, const float* brow) {
    const VF av = B::fset1(a);
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      if (live(v)) {
        row_acc[v] = B::fadd(row_acc[v], B::fmul(av, load(brow + j, v)));
      }
    }
  };
  VF acc[R][NV];
  std::int64_t common = terms[0].len;
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    common = terms[r].len < common ? terms[r].len : common;
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = live(v) ? load(c + r * ldc + j, v) : B::fset1(0.0F);
    }
  }
  for (std::int64_t t = 0; t < common; ++t) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      add_term(acc[r], terms[r].a[t], terms[r].b[t]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    for (std::int64_t t = common; t < terms[r].len; ++t) {
      add_term(acc[r], terms[r].a[t], terms[r].b[t]);
    }
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      float* out = c + r * ldc + j + v * B::kF32;
      if (Last && v == nv - 1) {
        B::fstore_part(out, acc[r][v], tail);
      } else if (live(v)) {
        B::fstore(out, acc[r][v]);
      }
    }
  }
}

/// R rows of gemm_acc across all n columns: full tiles, then one last tile
/// of 1..kAccVecs vectors whose final vector may be ragged.
template <class B, int R>
void gemm_acc_rows(const AccTerms* terms, std::int64_t n, float* c,
                   std::int64_t ldc) {
  constexpr int NV = kAccVecs<B>;
  constexpr std::int64_t W = B::kF32;
  std::int64_t j = 0;
  for (; n - j > NV * W; j += NV * W) {
    gemm_acc_tile<B, R, false>(terms, j, c, ldc, NV, static_cast<int>(W));
  }
  const int nv = static_cast<int>((n - j + W - 1) / W);
  gemm_acc_tile<B, R, true>(terms, j, c, ldc, nv,
                             static_cast<int>(n - j - (nv - 1) * W));
}

template <class B>
void gemm_acc(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              std::int64_t a_rs, std::int64_t a_cs, const float* b,
              std::int64_t ldb, float* c, std::int64_t ldc) {
  static_assert(kTileRows == 4, "one gemm_acc_rows instance per tile height");
  using Rows = void (*)(const AccTerms*, std::int64_t, float*, std::int64_t);
  constexpr Rows kRows[] = {nullptr, &gemm_acc_rows<B, 1>,
                            &gemm_acc_rows<B, 2>, &gemm_acc_rows<B, 3>,
                            &gemm_acc_rows<B, 4>};
  if (n <= 0) return;
  AccTerms terms[kTileRows];
  for (std::int64_t i = 0; i < m; i += kTileRows) {
    const std::int64_t rows = m - i < kTileRows ? m - i : kTileRows;
    const float* arows = a + i * a_rs;
    for (std::int64_t l0 = 0; l0 < k; l0 += kAccChunk) {
      const std::int64_t l1 = k - l0 < kAccChunk ? k : l0 + kAccChunk;
      std::int64_t live = 0;
      for (std::int64_t r = 0; r < rows; ++r) {
        collect_terms(arows + r * a_rs, a_cs, b, ldb, l0, l1, terms[r]);
        live += terms[r].len;
      }
      if (live > 0) kRows[rows](terms, n, c + i * ldc, ldc);
    }
  }
}

}  // namespace dropback::simd::impl
