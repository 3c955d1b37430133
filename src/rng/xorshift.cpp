#include "rng/xorshift.hpp"

#include <cmath>

namespace dropback::rng {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Xorshift128::Xorshift128(std::uint64_t seed) {
  // Expand the 64-bit seed into 128 bits of state; splitmix64 never yields
  // four zero words for distinct counters, so the state is always valid.
  std::uint64_t a = splitmix64(seed);
  std::uint64_t b = splitmix64(seed + 1);
  x_ = static_cast<std::uint32_t>(a);
  y_ = static_cast<std::uint32_t>(a >> 32);
  z_ = static_cast<std::uint32_t>(b);
  w_ = static_cast<std::uint32_t>(b >> 32);
  if ((x_ | y_ | z_ | w_) == 0) w_ = 0x6C078965U;
}

std::uint32_t Xorshift128::next_u32() {
  // Marsaglia's xorshift128: x^=x<<11; x^=x>>8; ... w^=w>>19 ^ x ^ x>>8.
  std::uint32_t t = x_ ^ (x_ << 11);
  x_ = y_;
  y_ = z_;
  z_ = w_;
  w_ = w_ ^ (w_ >> 19) ^ t ^ (t >> 8);
  return w_;
}

std::uint64_t Xorshift128::next_u64() {
  std::uint64_t hi = next_u32();
  return (hi << 32) | next_u32();
}

float Xorshift128::uniform() {
  // 24 high bits -> [0,1) with full float mantissa coverage.
  return static_cast<float>(next_u32() >> 8) * (1.0F / 16777216.0F);
}

float Xorshift128::uniform(float lo, float hi) {
  return lo + (hi - lo) * uniform();
}

std::uint32_t Xorshift128::uniform_int(std::uint32_t n) {
  // Lemire-style rejection-free mapping is fine here; modulo bias is
  // negligible for the small n used in shuffling, but use the multiply-shift
  // reduction anyway.
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(next_u32()) * n) >> 32);
}

float Xorshift128::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  float u1 = uniform();
  float u2 = uniform();
  // Guard against log(0).
  if (u1 < 1e-12F) u1 = 1e-12F;
  const float r = std::sqrt(-2.0F * std::log(u1));
  const float theta = 6.28318530717958647692F * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

float Xorshift128::normal(float mean, float stddev) {
  return mean + stddev * normal();
}

Xorshift128::State Xorshift128::state() const {
  return State{x_, y_, z_, w_, has_cached_normal_, cached_normal_};
}

void Xorshift128::set_state(const State& s) {
  x_ = s.x;
  y_ = s.y;
  z_ = s.z;
  w_ = s.w;
  if ((x_ | y_ | z_ | w_) == 0) w_ = 0x6C078965U;  // keep the state valid
  has_cached_normal_ = s.has_cached_normal;
  cached_normal_ = s.cached_normal;
}

std::uint32_t indexed_key(std::uint64_t seed, std::uint64_t index) {
  return static_cast<std::uint32_t>(
      splitmix64(seed ^ ((index >> 32) * 0x9E3779B97F4A7C15ULL)));
}

std::uint32_t indexed_u32(std::uint64_t seed, std::uint64_t index) {
  // A keyed Weyl sequence through a 32-bit finalizer: a handful of integer
  // ops and no memory traffic, the property the paper's energy argument
  // rests on. The SIMD regen kernels run the same steps on u32 lanes.
  return indexed_mix(static_cast<std::uint32_t>(index) * kIndexWeyl ^
                     indexed_key(seed, index));
}

float indexed_normal_fast(std::uint64_t seed, std::uint64_t index) {
  return clt_normal(indexed_u32(seed, index));
}

float indexed_uniform(std::uint64_t seed, std::uint64_t index) {
  return static_cast<float>(indexed_u32(seed, index) >> 8) *
         (1.0F / 16777216.0F);
}

}  // namespace dropback::rng
