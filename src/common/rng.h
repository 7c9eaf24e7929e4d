#pragma once
// Deterministic random number generation.
//
// Every stochastic component in the library (channels, adversaries,
// reservoir buffer selection, Monte-Carlo experiments) draws from an
// explicitly seeded `Rng` so that every experiment is reproducible
// bit-for-bit. The generator is Xoshiro256** seeded via SplitMix64,
// which is both fast and statistically strong for simulation use.
// This is NOT a cryptographic RNG; key material in tests/examples is
// derived from it only for reproducibility of scenarios, never as a
// security claim.

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace dap::common {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Uniform double in [0, 1) from one 64-bit word (its 53 high bits).
[[nodiscard]] constexpr double unit_double(std::uint64_t word) noexcept {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit word.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  double next_double() noexcept;

  /// Uniform integer in [lo, hi] inclusive; throws if lo > hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// True with probability `p` (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// `n` pseudo-random bytes (test/scenario material, not cryptographic).
  Bytes bytes(std::size_t n);

  /// Derives an independent child generator; children with distinct tags
  /// produce independent streams (used to give each node its own RNG).
  [[nodiscard]] Rng fork(std::uint64_t tag) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace dap::common
