// Regenerable initialization specifications.
//
// Every parameter tensor in the library carries an InitSpec: a compact recipe
// (kind + scale + seed) from which the initial value of any element can be
// recomputed on demand from its flat index, without storing the initial
// tensor. This is what lets DropBack "forget" untracked weights: at every
// access their value is regenerated as `spec.value_at(i)`.
//
// Constant-initialized layers (BatchNorm gamma/beta, PReLU slopes, biases)
// are regenerable trivially — which is why DropBack can prune layers that
// value-based pruning methods cannot (paper §2.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dropback::util {
class ByteReader;
class ByteWriter;
}  // namespace dropback::util

namespace dropback::rng {

/// A deterministic, index-addressable initializer for one parameter tensor.
class InitSpec {
 public:
  enum class Kind {
    kScaledNormal,  ///< N(0, sigma) regenerated by xorshift from (seed, index).
    kConstant,      ///< The same value at every index (BN gamma=1, bias=0, ...).
  };

  InitSpec() : kind_(Kind::kConstant), scale_(0.0F), seed_(0) {}

  /// N(0, sigma) with per-index xorshift regeneration.
  static InitSpec scaled_normal(float sigma, std::uint64_t seed);

  /// LeCun 1998 "efficient backprop" init: sigma = 1/sqrt(fan_in).
  static InitSpec lecun(std::size_t fan_in, std::uint64_t seed);

  /// He init: sigma = sqrt(2/fan_in), used for ReLU conv stacks.
  static InitSpec he(std::size_t fan_in, std::uint64_t seed);

  /// Constant initializer (value at every index).
  static InitSpec constant(float value);

  Kind kind() const { return kind_; }

  /// Normal sigma (kScaledNormal) or the constant value (kConstant).
  float scale() const { return scale_; }

  std::uint64_t seed() const { return seed_; }

  /// Regenerate the initialization value of element `index`.
  /// Pure function of (spec, index): same result in any order, any time.
  float value_at(std::uint64_t index) const;

  /// Fill a buffer with the first n regenerated values (index 0..n-1).
  /// Runs on the batched multi-lane regen kernel (docs/SIMD.md); bitwise
  /// identical to calling value_at per index.
  void fill(float* data, std::size_t n) const;

  /// Fill a buffer with the regenerated values of indices
  /// [first, first + n) — the windowed variant used when materializing one
  /// row/filter of a sparse-stored tensor.
  void fill_range(std::uint64_t first, float* data, std::size_t n) const;

  /// fill_range on the calling thread, never the global pool: for callers
  /// that may run on several threads at once (the serving forward), since
  /// util::ThreadPool::run takes one dispatching caller at a time.
  void fill_range_inline(std::uint64_t first, float* data,
                         std::size_t n) const;

  /// Bytes needed to persist this spec (kind + scale + seed) — the entire
  /// storage cost of all untracked weights of a tensor.
  static constexpr std::size_t persisted_bytes() { return 1 + 4 + 8; }

  /// The persisted triple: u8 kind, f32 scale, u64 seed. Every format that
  /// stores a spec (DBSW, DBQS, the DBTS inits section) goes through these.
  void encode(util::ByteWriter& w) const;
  /// Rejects, with util::IoError, a kind this build does not know and a
  /// constant spec with a nonzero seed: a spec that decodes must regenerate
  /// exactly the weights it was saved with.
  static InitSpec decode(util::ByteReader& r);

  std::string describe() const;

  friend bool operator==(const InitSpec& a, const InitSpec& b) {
    return a.kind_ == b.kind_ && a.scale_ == b.scale_ && a.seed_ == b.seed_;
  }

 private:
  InitSpec(Kind kind, float scale, std::uint64_t seed)
      : kind_(kind), scale_(scale), seed_(seed) {}

  Kind kind_;
  float scale_;
  std::uint64_t seed_;
};

}  // namespace dropback::rng
