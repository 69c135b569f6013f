#include "rand/rng.hpp"

namespace psdp::rand {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Index Rng::uniform_index(Index n) {
  PSDP_CHECK(n > 0, "uniform_index requires n > 0");
  // Rejection-free modulo is fine here: n is tiny relative to 2^64, so the
  // modulo bias is far below statistical noise in any experiment we run.
  return static_cast<Index>(next_u64() % static_cast<std::uint64_t>(n));
}

Real Rng::normal(Real mean, Real stddev) { return mean + stddev * normal(); }

Rng Rng::split() {
  // Derive the child from two fresh outputs; the parent advances, so
  // repeated splits yield distinct streams.
  const std::uint64_t a = next_u64();
  const std::uint64_t b = next_u64();
  return Rng(a ^ detail::rotl(b, 32) ^ 0xd1b54a32d192ed03ULL);
}

std::uint64_t stream_seed(std::uint64_t base_seed, std::uint64_t stream) {
  std::uint64_t s = base_seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return splitmix64(s);
}

}  // namespace psdp::rand
