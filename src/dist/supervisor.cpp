#include "dist/supervisor.h"

#include <algorithm>
#include <cstdint>

namespace rn::dist {

unsigned backoff_delay_ms(const supervise_policy& policy, unsigned attempt) {
  const unsigned shift = std::min(attempt, 20u);  // no u32 overflow
  const std::uint64_t raw = std::uint64_t{policy.backoff_base_ms} << shift;
  return static_cast<unsigned>(
      std::min<std::uint64_t>(raw, policy.backoff_cap_ms));
}

}  // namespace rn::dist
