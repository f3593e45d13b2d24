// Deterministic pseudo-random number generation.
//
// xoshiro256** seeded via splitmix64. Every protocol node derives its own
// stream from (run seed, node id) so simulations are reproducible and
// insensitive to iteration order.
#pragma once

#include <bit>
#include <cstdint>

#include "common/check.h"

namespace rn {

/// xoshiro256** engine; satisfies UniformRandomBitGenerator.
class rng {
 public:
  using result_type = std::uint64_t;

  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// A stream that is statistically independent per (seed, stream) pair.
  static rng for_stream(std::uint64_t seed, std::uint64_t stream);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Inline: the protocol planning loops draw once per prompted node.
  result_type operator()() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound); bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// True with probability 2^-e for e >= 0 (exact, no floating point).
  /// Consumes one draw iff 0 < e < 64.
  bool with_probability_pow2(int e) {
    RN_REQUIRE(e >= 0, "exponent must be non-negative");
    if (e == 0) return true;
    if (e >= 64) return false;
    // True iff the low e bits are all zero: probability exactly 2^-e.
    return ((*this)() & ((1ULL << e) - 1)) == 0;
  }

 private:
  std::uint64_t s_[4];
};

/// Stateless counter-based stream: the k-th 64-bit block of the (seed,
/// stream) coin sequence. Unlike `rng`, there is no per-stream state to
/// store or advance — any block is addressable directly, which is what the
/// batched-coin protocol fast paths need (one `std::uint32_t` cursor per
/// node instead of a 32-byte engine). Blocks are statistically independent
/// across all three coordinates (two rounds of splitmix64-style finalizing).
[[nodiscard]] std::uint64_t counter_word(std::uint64_t seed,
                                         std::uint64_t stream,
                                         std::uint64_t k);

}  // namespace rn
