#include "rng/init_spec.hpp"

#include <cmath>
#include <sstream>

#include "rng/xorshift.hpp"
#include "simd/dispatch.hpp"
#include "util/bytes.hpp"
#include "util/thread_pool.hpp"

namespace dropback::rng {
namespace {

/// Shard size for bulk regeneration: regen is a dozen integer ops per
/// element, so this matches the score-sweep grain (4096 elements).
constexpr std::int64_t kFillGrain = 4096;

/// The scaled-normal kind byte of the splitmix64 + xorshift regen hash.
constexpr std::uint8_t kRetiredScaledNormal = 0;

}  // namespace

simd::RegenSpec InitSpec::regen_spec() const {
  return simd::RegenSpec{kind_ == Kind::kConstant ? 0 : 1, scale_, seed_};
}

InitSpec InitSpec::scaled_normal(float sigma, std::uint64_t seed) {
  return InitSpec(Kind::kScaledNormal, sigma, seed);
}

InitSpec InitSpec::lecun(std::size_t fan_in, std::uint64_t seed) {
  const float sigma =
      fan_in > 0 ? 1.0F / std::sqrt(static_cast<float>(fan_in)) : 1.0F;
  return scaled_normal(sigma, seed);
}

InitSpec InitSpec::he(std::size_t fan_in, std::uint64_t seed) {
  const float sigma =
      fan_in > 0 ? std::sqrt(2.0F / static_cast<float>(fan_in)) : 1.0F;
  return scaled_normal(sigma, seed);
}

InitSpec InitSpec::constant(float value) {
  return InitSpec(Kind::kConstant, value, 0);
}

void InitSpec::encode(util::ByteWriter& w) const {
  w.pod(static_cast<std::uint8_t>(kind_));
  w.pod(scale_);
  w.pod(seed_);
}

InitSpec InitSpec::decode(util::ByteReader& r) {
  const auto kind = r.pod<std::uint8_t>();
  const auto scale = r.pod<float>();
  const auto seed = r.pod<std::uint64_t>();
  switch (static_cast<Kind>(kind)) {
    case Kind::kScaledNormal:
      return scaled_normal(scale, seed);
    case Kind::kConstant:
      if (seed != 0) {
        r.fail("constant InitSpec with seed " + std::to_string(seed));
      }
      return constant(scale);
  }
  if (kind == kRetiredScaledNormal) {
    r.fail("scaled-normal InitSpec kind 0 was written with the retired "
           "splitmix64 + xorshift regen hash, which this build replaced with "
           "the 32-bit counter hash (kind " +
           std::to_string(static_cast<int>(Kind::kScaledNormal)) +
           "); its untracked weights cannot be regenerated");
  }
  r.fail("unknown InitSpec kind " + std::to_string(kind));
}

float InitSpec::value_at(std::uint64_t index) const {
  switch (kind_) {
    case Kind::kScaledNormal:
      return scale_ * indexed_normal_fast(seed_, index);
    case Kind::kConstant:
      return scale_;
  }
  return 0.0F;  // unreachable
}

void InitSpec::fill(float* data, std::size_t n) const { fill_range(0, data, n); }

void InitSpec::fill_range(std::uint64_t first, float* data,
                          std::size_t n) const {
  // Pure per-index map: shards write disjoint ranges, so parallelism and
  // lane width are both invisible in the output bits.
  const simd::RegenSpec spec = regen_spec();
  util::parallel_for(kFillGrain, static_cast<std::int64_t>(n),
                     [&](std::int64_t begin, std::int64_t end) {
                       simd::kernels().regen_fill(
                           spec, first + static_cast<std::uint64_t>(begin),
                           end - begin, data + begin);
                     });
}

std::string InitSpec::describe() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kScaledNormal:
      os << "N(0, " << scale_ << ") seed=" << seed_;
      break;
    case Kind::kConstant:
      os << "const(" << scale_ << ")";
      break;
  }
  return os.str();
}

}  // namespace dropback::rng
