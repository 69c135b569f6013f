// Deterministic random number generation.
//
// Every randomized component in the library (instance generators, the JL
// sign sketch) takes an explicit 64-bit seed, so experiments are
// reproducible and parallel streams can be split deterministically with
// split().
//
// Engine: xoshiro256** (Blackman & Vigna) seeded via SplitMix64, the
// recommended seeding procedure. Gaussians use the Marsaglia polar method.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "util/common.hpp"

namespace psdp::rand {

/// SplitMix64 step: advances the state and returns the next value. Used for
/// seeding and for cheap stateless hashing of (seed, index) pairs.
std::uint64_t splitmix64(std::uint64_t& state);

namespace detail {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

/// xoshiro256** generator with convenience samplers. next_u64() and the
/// samplers behind normal() are defined inline: the sign sketch's panel
/// fill draws once per 64 entries, and out of line normal() costs three
/// calls a deviate.
class Rng {
 public:
  /// Seeds the 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = detail::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = detail::rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1): 53 random bits.
  Real uniform() { return static_cast<Real>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  Real uniform(Real lo, Real hi) {
    PSDP_CHECK(lo <= hi, "uniform(lo, hi) requires lo <= hi");
    if (lo == hi) return lo;  // degenerate interval: deterministic value
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  Index uniform_index(Index n);

  /// Standard normal via the Marsaglia polar method (caches the spare
  /// deviate).
  Real normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    Real u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const Real factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    has_spare_ = true;
    return u * factor;
  }

  /// Normal with the given mean and standard deviation.
  Real normal(Real mean, Real stddev);

  /// A statistically independent generator derived from this one; both this
  /// generator and the child remain usable. Deterministic.
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_;
  Real spare_ = 0;
  bool has_spare_ = false;
};

/// Deterministic per-stream seed derived from a base seed and a stream index
/// (e.g. one stream per constraint matrix in a generator).
std::uint64_t stream_seed(std::uint64_t base_seed, std::uint64_t stream);

}  // namespace psdp::rand
