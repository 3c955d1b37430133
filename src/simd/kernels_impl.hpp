// Kernel bodies, templated over a vec.hpp trait struct. Each backend TU
// instantiates these once (`impl::gemm_acc<vec::Avx2>` etc.) and lists the
// instantiations in its Kernels table.
//
// Shared structure of every kernel: a vector main loop over full lanes,
// then a tail delegated to the scalar reference in simd::detail — so the
// tail is bitwise-correct by construction and the vector loop only has to
// match the scalar code on full vectors (the per-lane operation sequences
// documented in vec.hpp take care of that). The two GEMMs are the
// exception: their row tails are shorter register tiles and their column
// tails are padded lanes that are never stored (gemm_nt's zero-padded pack
// group, gemm_acc's partial loads/stores), so they have no scalar tail.
#pragma once

#include <cstdint>

#include "rng/xorshift.hpp"
#include "simd/kernels.hpp"
#include "simd/vec.hpp"

namespace dropback::simd::impl {

/// 1/stddev of the 4-byte CLT sum (rng::indexed_normal_fast).
inline constexpr float kInvStddev = 1.0F / 147.8005413F;

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
/// scale * ((sum - 510) * kInvStddev), two separate multiplies, matching
/// InitSpec::value_at's rounding.
template <class B>
inline typename B::VF normal(typename B::VI h, typename B::VF scale) {
  const typename B::VF t = B::fmul(
      B::fsub(B::byte_sum(h), B::fset1(510.0F)), B::fset1(kInvStddev));
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

/// regen_fill straight into gemm_nt's packed layout, one kPackWidth-row
/// group at a time. A step covers S = max(W, kF32) packed floats, i.e.
/// V = S / kF32 vectors and L = S / W values of l; lane j of vector v
/// holds row t = (v*kF32 + j) % W at l + (v*kF32 + j) / W, so its index
/// advances by L per step and its Weyl term by L * kIndexWeyl. Padded rows
/// are computed and then zeroed by a lane mask.
template <class B>
void regen_pack(RegenSpec spec, std::uint64_t first, std::int64_t n,
                std::int64_t k, float* packed) {
  constexpr std::int64_t W = kPackWidth;
  constexpr std::int64_t S = B::kF32 > W ? B::kF32 : W;
  constexpr int V = static_cast<int>(S / B::kF32);
  constexpr std::int64_t L = S / W;
  using VI = typename B::VI;
  using VF = typename B::VF;
  if (spec.kind == 0 || k == 0) {
    detail::regen_pack(spec, first, n, k, packed);
    return;
  }
  const VF scale = B::fset1(spec.scale);
  const VF zero = B::fset1(0.0F);
  const VI step =
      B::iset1(static_cast<std::uint32_t>(L) * rng::kIndexWeyl);
  for (std::int64_t g = 0; g * W < n; ++g) {
    const std::int64_t rows = n - g * W < W ? n - g * W : W;
    const std::uint64_t group_first =
        first + static_cast<std::uint64_t>(g * W * k);
    float* group = packed + g * W * k;
    if (segment_left(group_first) < static_cast<std::uint64_t>(rows * k)) {
      // The group's indices cross a 2^32 boundary, where the key changes.
      detail::regen_pack(spec, group_first, rows, k, group);
      continue;
    }
    const VI key = B::iset1(rng::indexed_key(spec.seed, group_first));
    VI weyl[V];
    typename B::VM live[V];
    for (int v = 0; v < V; ++v) {
      std::uint32_t lanes[B::kF32];
      float row_of[B::kF32];
      for (int j = 0; j < B::kF32; ++j) {
        const std::int64_t p = v * B::kF32 + j;
        lanes[j] = static_cast<std::uint32_t>(
                       group_first +
                       static_cast<std::uint64_t>(p % W * k + p / W)) *
                   rng::kIndexWeyl;
        row_of[j] = static_cast<float>(p % W);
      }
      weyl[v] = B::iload(lanes);
      live[v] = B::cmp(B::fset1(static_cast<float>(rows)), B::fload(row_of),
                       Cmp::kGt);
    }
    std::int64_t l = 0;
    for (; l + L <= k; l += L) {
      for (int v = 0; v < V; ++v) {
        const VF value = normal<B>(mix<B>(weyl[v], key), scale);
        B::fstore(group + l * W + v * B::kF32, B::select(live[v], value, zero));
        weyl[v] = B::iadd(weyl[v], step);
      }
    }
    for (; l < k; ++l) {  // the last l when L does not divide k
      for (std::int64_t t = 0; t < W; ++t) {
        float* out = group + l * W + t;
        *out = 0.0F;
        if (t < rows) {
          detail::regen_fill(spec, group_first + static_cast<std::uint64_t>(
                                                     t * k + l),
                             1, out);
        }
      }
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

/// One R-row x G-group register tile of gemm_nt: R*G*kPackWidth outputs in
/// R*G*kPackWidth/kF64 independent double vectors. Each lane is one output's
/// own chain — float product widened to double, l ascending — so the tile
/// sets how many chains are in flight, never an output's sequence. Stores
/// the first `cols` columns of each row; the rest are padded lanes.
template <class B, int R, int G>
inline void gemm_nt_tile(const float* a, const float* packed, std::int64_t k,
                         float* c, std::int64_t n, std::int64_t cols) {
  static_assert(kPackWidth % B::kF64 == 0, "a vector never spans groups");
  constexpr int kV = G * static_cast<int>(kPackWidth) / B::kF64;
  // Fully unrolled loops make every acc index a constant, which is what
  // keeps the whole tile in registers.
  typename B::VD acc[R][kV] = {};
  for (std::int64_t l = 0; l < k; ++l) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
      for (int v = 0; v < kV; ++v) {
        // Vector v holds tile columns [v*kF64, (v+1)*kF64), inside one
        // group.
        const std::int64_t col = v * B::kF64;
        const float* q = packed + col / kPackWidth * kPackWidth * k +
                         l * kPackWidth + col % kPackWidth;
        acc[r][v] = B::dadd(acc[r][v], B::wmul(a[r * k + l], q));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    float tmp[G * kPackWidth];
    float* out = cols == G * kPackWidth ? c + r * n : tmp;
#pragma GCC unroll 16
    for (int v = 0; v < kV; ++v) B::dstore_f32(out + v * B::kF64, acc[r][v]);
    for (std::int64_t j = 0; out == tmp && j < cols; ++j) c[r * n + j] = tmp[j];
  }
}

/// R rows of gemm_nt: G-group tiles across the columns, then one-group
/// tiles for the rest, the last of them ragged. G = 2 when one vector holds
/// a whole group (AVX-512: 8 accumulators at R = 4), else 1.
template <class B, int R>
void gemm_nt_rows(const float* a, const float* packed, std::int64_t k,
                  std::int64_t n, float* c) {
  constexpr int G = B::kF64 == kPackWidth ? 2 : 1;
  std::int64_t j = 0;
  for (; j + G * kPackWidth <= n; j += G * kPackWidth) {
    gemm_nt_tile<B, R, G>(a, packed + j * k, k, c + j, n, G * kPackWidth);
  }
  for (; j < n; j += kPackWidth) {
    const std::int64_t cols = n - j < kPackWidth ? n - j : kPackWidth;
    gemm_nt_tile<B, R, 1>(a, packed + j * k, k, c + j, n, cols);
  }
}

template <class B>
void gemm_nt(const float* a, std::int64_t rows, const float* packed,
             std::int64_t k, std::int64_t n, float* c) {
  static_assert(kTileRows == 4, "one gemm_nt_rows instance per tile height");
  using Rows = void (*)(const float*, const float*, std::int64_t,
                        std::int64_t, float*);
  constexpr Rows kRows[] = {nullptr, &gemm_nt_rows<B, 1>, &gemm_nt_rows<B, 2>,
                            &gemm_nt_rows<B, 3>, &gemm_nt_rows<B, 4>};
  for (std::int64_t i = 0; i < rows; i += kTileRows) {
    const std::int64_t r = rows - i < kTileRows ? rows - i : kTileRows;
    kRows[r](a + i * k, packed, k, n, c + i * n);
  }
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
