// Fixed-width vector traits — the per-ISA layer under the kernel templates.
//
// Each struct below exposes the same tiny vocabulary (float lanes with
// partial loads/stores, masked select, and u32 lanes for the regen hash)
// over one instruction set.
// simd/kernels_impl.hpp instantiates the kernel bodies once per trait; a
// backend TU is just `using B = vec::Avx2;` plus a table of those
// instantiations.
//
// Bitwise rules baked into this file:
//   * every float op is an explicit intrinsic — together with
//     -ffp-contract=off on the simd TUs this forbids FMA contraction, so
//     each lane performs exactly the scalar code's multiply-then-add
//     rounding steps;
//   * the u32 lanes are kF32 wide, one lane per float they produce, so the
//     regen hash needs no interleave: lane i of a hash vector is the value
//     stored to float lane i. `imul` is the low 32 bits of the product
//     (pmulld / vmulq_u32), exactly the scalar `x *= c` on a uint32_t;
//   * shifts are template-immediate (`isrl<16>`) because NEON requires
//     compile-time shift counts — generic code writes
//     `B::template isrl<16>(x)`;
//   * `byte_sum` adds the four bytes of each u32 lane and converts the sum
//     (at most 1020, exact in float) — maddubs then madd against all-ones
//     on x86, two pairwise widening adds (vpaddl) on NEON;
//   * `fload_part`/`fstore_part` touch only the first `cnt` lanes (1..kF32)
//     — masked loads/stores on AVX2/AVX-512, a small copy elsewhere — so a
//     ragged column tail needs no scalar loop; loaded lanes past `cnt` are
//     zero and never stored.
//
// Only simd/ TUs may include this header (lint rule R7 enforces that
// vendor intrinsics never leak elsewhere).
#pragma once

#include <cstdint>
#include <cstring>

#include "simd/kernels.hpp"

#if defined(__SSE4_2__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace dropback::simd::vec {

#if defined(__SSE4_2__)

struct Sse4 {
  static constexpr int kF32 = 4;  ///< float lanes per step
  using VF = __m128;
  using VI = __m128i;  ///< kF32 u32 lanes
  using VM = __m128;  ///< all-ones/all-zeros float lane mask

  // --- float lanes --------------------------------------------------------
  static VF fload(const float* p) { return _mm_loadu_ps(p); }
  static void fstore(float* p, VF v) { _mm_storeu_ps(p, v); }
  static VF fset1(float v) { return _mm_set1_ps(v); }
  static VF fadd(VF a, VF b) { return _mm_add_ps(a, b); }
  static VF fsub(VF a, VF b) { return _mm_sub_ps(a, b); }
  static VF fmul(VF a, VF b) { return _mm_mul_ps(a, b); }
  static VF fabs_(VF a) {
    return _mm_andnot_ps(_mm_set1_ps(-0.0F), a);
  }
  static VM cmp(VF a, VF b, Cmp c) {
    switch (c) {
      case Cmp::kGt:
        return _mm_cmpgt_ps(a, b);
      case Cmp::kGe:
        return _mm_cmpge_ps(a, b);
      case Cmp::kEq:
        break;
    }
    return _mm_cmpeq_ps(a, b);
  }
  static unsigned bits(VM m) {
    return static_cast<unsigned>(_mm_movemask_ps(m));
  }
  static int count(VM m) { return __builtin_popcount(bits(m)); }
  /// Lane i true iff bytes[i] != 0.
  static VM mask_nonzero_bytes(const std::uint8_t* bytes) {
    std::uint32_t packed = 0;
    std::memcpy(&packed, bytes, 4);
    const __m128i b32 = _mm_cvtepu8_epi32(
        _mm_cvtsi32_si128(static_cast<int>(packed)));
    return _mm_castsi128_ps(_mm_cmpgt_epi32(b32, _mm_setzero_si128()));
  }
  static VF select(VM m, VF if_set, VF if_clear) {
    return _mm_blendv_ps(if_clear, if_set, m);
  }
  /// The first cnt (1..kF32) lanes of p; the rest read as zero.
  static VF fload_part(const float* p, int cnt) {
    float tmp[kF32] = {};
    std::memcpy(tmp, p, static_cast<std::size_t>(cnt) * sizeof(float));
    return fload(tmp);
  }
  /// Stores the first cnt (1..kF32) lanes of v at p.
  static void fstore_part(float* p, VF v, int cnt) {
    float tmp[kF32];
    fstore(tmp, v);
    std::memcpy(p, tmp, static_cast<std::size_t>(cnt) * sizeof(float));
  }

  // --- u32 lanes (the regen hash) -----------------------------------------
  static VI iset1(std::uint32_t v) {
    return _mm_set1_epi32(static_cast<int>(v));
  }
  static VI iload(const std::uint32_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static VI iadd(VI a, VI b) { return _mm_add_epi32(a, b); }
  static VI ixor(VI a, VI b) { return _mm_xor_si128(a, b); }
  template <int S>
  static VI isrl(VI a) {
    return _mm_srli_epi32(a, S);
  }
  static VI imul(VI a, VI b) { return _mm_mullo_epi32(a, b); }
  /// Sum of each lane's four bytes, as float: unsigned bytes times 1 into
  /// i16 pairs (at most 510), then i16 pairs times 1 into i32.
  static VF byte_sum(VI a) {
    const __m128i pairs = _mm_maddubs_epi16(a, _mm_set1_epi8(1));
    return _mm_cvtepi32_ps(_mm_madd_epi16(pairs, _mm_set1_epi16(1)));
  }
};

#endif  // __SSE4_2__

#if defined(__AVX2__)

struct Avx2 {
  static constexpr int kF32 = 8;
  using VF = __m256;
  using VI = __m256i;  ///< kF32 u32 lanes
  using VM = __m256;

  static VF fload(const float* p) { return _mm256_loadu_ps(p); }
  static void fstore(float* p, VF v) { _mm256_storeu_ps(p, v); }
  static VF fset1(float v) { return _mm256_set1_ps(v); }
  static VF fadd(VF a, VF b) { return _mm256_add_ps(a, b); }
  static VF fsub(VF a, VF b) { return _mm256_sub_ps(a, b); }
  static VF fmul(VF a, VF b) { return _mm256_mul_ps(a, b); }
  static VF fabs_(VF a) {
    return _mm256_andnot_ps(_mm256_set1_ps(-0.0F), a);
  }
  static VM cmp(VF a, VF b, Cmp c) {
    switch (c) {
      case Cmp::kGt:
        return _mm256_cmp_ps(a, b, _CMP_GT_OQ);
      case Cmp::kGe:
        return _mm256_cmp_ps(a, b, _CMP_GE_OQ);
      case Cmp::kEq:
        break;
    }
    return _mm256_cmp_ps(a, b, _CMP_EQ_OQ);
  }
  static unsigned bits(VM m) {
    return static_cast<unsigned>(_mm256_movemask_ps(m));
  }
  static int count(VM m) { return __builtin_popcount(bits(m)); }
  static VM mask_nonzero_bytes(const std::uint8_t* bytes) {
    std::uint64_t packed = 0;
    std::memcpy(&packed, bytes, 8);
    const __m256i b32 = _mm256_cvtepu8_epi32(
        _mm_set_epi64x(0, static_cast<long long>(packed)));
    return _mm256_castsi256_ps(
        _mm256_cmpgt_epi32(b32, _mm256_setzero_si256()));
  }
  static VF select(VM m, VF if_set, VF if_clear) {
    return _mm256_blendv_ps(if_clear, if_set, m);
  }
  /// All-ones in lanes [0, cnt).
  static __m256i part_mask(int cnt) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(cnt),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static VF fload_part(const float* p, int cnt) {
    return _mm256_maskload_ps(p, part_mask(cnt));
  }
  static void fstore_part(float* p, VF v, int cnt) {
    _mm256_maskstore_ps(p, part_mask(cnt), v);
  }

  static VI iset1(std::uint32_t v) {
    return _mm256_set1_epi32(static_cast<int>(v));
  }
  static VI iload(const std::uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static VI iadd(VI a, VI b) { return _mm256_add_epi32(a, b); }
  static VI ixor(VI a, VI b) { return _mm256_xor_si256(a, b); }
  template <int S>
  static VI isrl(VI a) {
    return _mm256_srli_epi32(a, S);
  }
  static VI imul(VI a, VI b) { return _mm256_mullo_epi32(a, b); }
  static VF byte_sum(VI a) {
    const __m256i pairs = _mm256_maddubs_epi16(a, _mm256_set1_epi8(1));
    return _mm256_cvtepi32_ps(_mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
  }
};

#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512BW__)

struct Avx512 {
  static constexpr int kF32 = 16;
  using VF = __m512;
  using VI = __m512i;
  using VM = __mmask16;

  static VF fload(const float* p) { return _mm512_loadu_ps(p); }
  static void fstore(float* p, VF v) { _mm512_storeu_ps(p, v); }
  static VF fset1(float v) { return _mm512_set1_ps(v); }
  static VF fadd(VF a, VF b) { return _mm512_add_ps(a, b); }
  static VF fsub(VF a, VF b) { return _mm512_sub_ps(a, b); }
  static VF fmul(VF a, VF b) { return _mm512_mul_ps(a, b); }
  static VF fabs_(VF a) { return _mm512_abs_ps(a); }
  static VM cmp(VF a, VF b, Cmp c) {
    switch (c) {
      case Cmp::kGt:
        return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ);
      case Cmp::kGe:
        return _mm512_cmp_ps_mask(a, b, _CMP_GE_OQ);
      case Cmp::kEq:
        break;
    }
    return _mm512_cmp_ps_mask(a, b, _CMP_EQ_OQ);
  }
  static unsigned bits(VM m) { return static_cast<unsigned>(m); }
  static int count(VM m) {
    return __builtin_popcount(static_cast<unsigned>(m));
  }
  static VM mask_nonzero_bytes(const std::uint8_t* bytes) {
    const __m512i b32 = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes)));
    return _mm512_cmpgt_epi32_mask(b32, _mm512_setzero_si512());
  }
  static VF select(VM m, VF if_set, VF if_clear) {
    return _mm512_mask_blend_ps(m, if_clear, if_set);
  }
  static __mmask16 part_mask(int cnt) {
    return static_cast<__mmask16>((1U << cnt) - 1U);
  }
  static VF fload_part(const float* p, int cnt) {
    return _mm512_maskz_loadu_ps(part_mask(cnt), p);
  }
  static void fstore_part(float* p, VF v, int cnt) {
    _mm512_mask_storeu_ps(p, part_mask(cnt), v);
  }

  static VI iset1(std::uint32_t v) {
    return _mm512_set1_epi32(static_cast<int>(v));
  }
  static VI iload(const std::uint32_t* p) { return _mm512_loadu_si512(p); }
  static VI iadd(VI a, VI b) { return _mm512_add_epi32(a, b); }
  static VI ixor(VI a, VI b) { return _mm512_xor_si512(a, b); }
  template <int S>
  static VI isrl(VI a) {
    return _mm512_srli_epi32(a, S);
  }
  static VI imul(VI a, VI b) { return _mm512_mullo_epi32(a, b); }
  /// maddubs/madd on 512 bits are AVX-512BW.
  static VF byte_sum(VI a) {
    const __m512i pairs = _mm512_maddubs_epi16(a, _mm512_set1_epi8(1));
    return _mm512_cvtepi32_ps(_mm512_madd_epi16(pairs, _mm512_set1_epi16(1)));
  }
};

#endif  // __AVX512F__ && __AVX512BW__

#if defined(__ARM_NEON) && defined(__aarch64__)

struct Neon {
  static constexpr int kF32 = 4;
  using VF = float32x4_t;
  using VI = uint32x4_t;
  using VM = uint32x4_t;

  static VF fload(const float* p) { return vld1q_f32(p); }
  static void fstore(float* p, VF v) { vst1q_f32(p, v); }
  static VF fset1(float v) { return vdupq_n_f32(v); }
  static VF fadd(VF a, VF b) { return vaddq_f32(a, b); }
  static VF fsub(VF a, VF b) { return vsubq_f32(a, b); }
  static VF fmul(VF a, VF b) { return vmulq_f32(a, b); }
  static VF fabs_(VF a) { return vabsq_f32(a); }
  static VM cmp(VF a, VF b, Cmp c) {
    switch (c) {
      case Cmp::kGt:
        return vcgtq_f32(a, b);
      case Cmp::kGe:
        return vcgeq_f32(a, b);
      case Cmp::kEq:
        break;
    }
    return vceqq_f32(a, b);
  }
  static unsigned bits(VM m) {
    const uint32x4_t weights = {1U, 2U, 4U, 8U};
    return vaddvq_u32(vandq_u32(m, weights));
  }
  static int count(VM m) { return __builtin_popcount(bits(m)); }
  static VM mask_nonzero_bytes(const std::uint8_t* bytes) {
    std::uint32_t packed = 0;
    std::memcpy(&packed, bytes, 4);
    const uint8x8_t b8 = vcreate_u8(packed);
    const uint32x4_t b32 = vmovl_u16(vget_low_u16(vmovl_u8(b8)));
    return vtstq_u32(b32, b32);
  }
  static VF select(VM m, VF if_set, VF if_clear) {
    return vbslq_f32(m, if_set, if_clear);
  }
  static VF fload_part(const float* p, int cnt) {
    float tmp[kF32] = {};
    std::memcpy(tmp, p, static_cast<std::size_t>(cnt) * sizeof(float));
    return fload(tmp);
  }
  static void fstore_part(float* p, VF v, int cnt) {
    float tmp[kF32];
    fstore(tmp, v);
    std::memcpy(p, tmp, static_cast<std::size_t>(cnt) * sizeof(float));
  }

  static VI iset1(std::uint32_t v) { return vdupq_n_u32(v); }
  static VI iload(const std::uint32_t* p) { return vld1q_u32(p); }
  static VI iadd(VI a, VI b) { return vaddq_u32(a, b); }
  static VI ixor(VI a, VI b) { return veorq_u32(a, b); }
  template <int S>
  static VI isrl(VI a) {
    return vshrq_n_u32(a, S);
  }
  static VI imul(VI a, VI b) { return vmulq_u32(a, b); }
  /// Bytes to u16 pair sums to u32 lane sums (vpaddl twice), then convert.
  static VF byte_sum(VI a) {
    return vcvtq_f32_u32(vpaddlq_u16(vpaddlq_u8(vreinterpretq_u8_u32(a))));
  }
};

#endif  // __ARM_NEON && __aarch64__

}  // namespace dropback::simd::vec
