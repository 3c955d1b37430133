// Xorshift pseudo-random number generation (Marsaglia 2003).
//
// Two flavors:
//
//  * `Xorshift128` — a conventional sequential stream generator used for data
//    shuffling, dropout masks, and synthetic dataset generation.
//
//  * Stateless *indexed* (counter-based) generation — `indexed_u32(seed, i)`
//    deterministically maps (seed, index) to a draw with a handful of 32-bit
//    integer operations. This is the mechanism DropBack uses to *regenerate*
//    untracked weight initialization values on every access instead of
//    storing them: the value depends only on the seed and the weight's flat
//    index, so it never has to touch off-chip memory (paper §2.1: six 32-bit
//    integer ops + one float op ≈ 1.5 pJ vs 640 pJ for a DRAM access, a 427x
//    saving).
//
// The indexed stream is a persistence format: a stored model keeps only
// (kind, scale, seed) for its untracked weights. It is versioned by the
// rng::InitSpec kind byte, so a store written with an earlier hash fails to
// load instead of regenerating different weights (docs/ALGORITHM.md).
#pragma once

#include <cstdint>

namespace dropback::rng {

/// Sequential xorshift128 generator (Marsaglia 2003, "Xorshift RNGs").
/// Period 2^128 - 1. Not cryptographic; plenty for ML workloads.
class Xorshift128 {
 public:
  /// Seeds the four state words from a single 64-bit seed via splitmix64,
  /// guaranteeing a nonzero state.
  explicit Xorshift128(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 32-bit draw.
  std::uint32_t next_u32();

  /// Next 64-bit draw (two 32-bit draws).
  std::uint64_t next_u64();

  /// Uniform float in [0, 1).
  float uniform();

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint32_t uniform_int(std::uint32_t n);

  /// Standard normal draw via Box-Muller (caches the second value).
  float normal();

  /// Normal with the given mean and standard deviation.
  float normal(float mean, float stddev);

  /// Full generator state, exposed so crash-safe checkpoints can capture and
  /// restore the stream mid-sequence (including the cached Box-Muller half).
  struct State {
    std::uint32_t x, y, z, w;
    bool has_cached_normal;
    float cached_normal;
  };
  State state() const;
  void set_state(const State& s);

 private:
  std::uint32_t x_, y_, z_, w_;
  bool has_cached_normal_ = false;
  float cached_normal_ = 0.0F;
};

/// splitmix64 finalizer — used to expand seeds and mix (seed, index) pairs.
std::uint64_t splitmix64(std::uint64_t x);

/// The key of `index`'s 2^32-index segment: the low word of
/// splitmix64(seed ^ hi32(index) * 0x9E3779B97F4A7C15). Every draw of one
/// segment shares it, so batched regeneration computes it once per segment.
std::uint32_t indexed_key(std::uint64_t seed, std::uint64_t index);

/// Weyl step applied to the low index word (2^32 / golden ratio, odd).
inline constexpr std::uint32_t kIndexWeyl = 0x9E3779B9U;
/// The two multipliers of the lowbias32 finalizer (C. Wellons).
inline constexpr std::uint32_t kMixMul1 = 0x7FEB352DU;
inline constexpr std::uint32_t kMixMul2 = 0x846CA68BU;

/// The per-index half of indexed_u32: lowbias32 applied to
/// `lo32(index) * kIndexWeyl ^ key` — two 32-bit multiplies and three
/// xorshifts, a bijection of u32.
constexpr std::uint32_t indexed_mix(std::uint32_t x) {
  x ^= x >> 16;
  x *= kMixMul1;
  x ^= x >> 15;
  x *= kMixMul2;
  x ^= x >> 16;
  return x;
}

/// Stateless counter-based draw: deterministically maps (seed, index) to a
/// 32-bit value, indexed_mix(lo32(index) * kIndexWeyl ^ indexed_key(seed,
/// index)). Same (seed, index) always gives the same value, in any order,
/// with no stored state; within one segment distinct indices never collide.
std::uint32_t indexed_u32(std::uint64_t seed, std::uint64_t index);

/// Fast approximate standard-normal regeneration from (seed, index).
///
/// Uses the central-limit trick: the four bytes of one indexed_u32 draw are
/// summed (mean 510, stddev ~147.8) and affinely mapped to ~N(0,1). This is
/// the recompute path the paper costs at 1.5 pJ (kRegenIntOps below). The
/// CLT(n=4) approximation is smooth within ~±3.45 sigma, which is
/// ample scaffolding for weight initialization.
float indexed_normal_fast(std::uint64_t seed, std::uint64_t index);

/// 1/stddev of the four-byte sum: variance 4 * (256^2 - 1)/12 = 21845.
inline constexpr float kCltInvStddev = 1.0F / 147.8005413F;

/// indexed_normal_fast's tail for the draw v: the sum of its four bytes
/// (mean 510), centered and scaled. Batched regeneration pairs it with a
/// key computed once per segment.
constexpr float clt_normal(std::uint32_t v) {
  const std::uint32_t sum = (v & 0xFFU) + ((v >> 8) & 0xFFU) +
                            ((v >> 16) & 0xFFU) + ((v >> 24) & 0xFFU);
  return (static_cast<float>(sum) - 510.0F) * kCltInvStddev;
}

/// Uniform [0,1) regeneration from (seed, index).
float indexed_uniform(std::uint64_t seed, std::uint64_t index);

/// Operation costs of one regeneration as the paper prices it (§2.1), used
/// by the energy model to reproduce the paper's 427x claim. The implemented
/// indexed_normal_fast spends more per lane; docs/ALGORITHM.md counts them.
inline constexpr int kRegenIntOps = 6;
inline constexpr int kRegenFloatOps = 1;

}  // namespace dropback::rng
