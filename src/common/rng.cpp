#include "common/rng.h"

#include "common/check.h"

namespace rn {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64's finalizer (a strong 64-bit mixer), without the chain state.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

rng::rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

rng rng::for_stream(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream id through splitmix so nearby ids give unrelated states.
  std::uint64_t x = seed ^ (0xd1342543de82ef95ULL * (stream + 1));
  rng r;
  for (auto& s : r.s_) s = splitmix64(x);
  return r;
}

std::uint64_t rng::uniform(std::uint64_t bound) {
  RN_REQUIRE(bound > 0, "uniform bound must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

double rng::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::uint64_t counter_word(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t k) {
  // Mix (seed, stream) first so nearby streams land far apart, then fold the
  // block counter in through a second full finalizer round.
  const std::uint64_t s =
      mix64(seed + 0x9e3779b97f4a7c15ULL * (stream + 1));
  return mix64(s ^ (0xd1342543de82ef95ULL * (k + 1)));
}

}  // namespace rn
