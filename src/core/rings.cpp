#include "core/rings.h"

#include <algorithm>

#include "common/check.h"

namespace rn::core {

ring_decomposition decompose_rings(const std::vector<level_t>& levels,
                                   level_t width) {
  RN_REQUIRE(width >= 1, "ring width must be positive");
  const std::size_t n = levels.size();
  ring_decomposition out;
  out.width = width;
  out.ring_of.assign(n, -1);
  out.rel_level.assign(n, no_level);

  level_t max_level = 0;
  for (level_t l : levels) max_level = std::max(max_level, l);
  const std::size_t ring_count =
      static_cast<std::size_t>(max_level / width) + 1;
  out.rings.resize(ring_count);
  for (std::size_t j = 0; j < ring_count; ++j)
    out.rings[j].first_layer = static_cast<level_t>(j) * width;

  for (node_id v = 0; v < n; ++v) {
    if (levels[v] == no_level) continue;
    const auto j = static_cast<std::size_t>(levels[v] / width);
    auto& ring = out.rings[j];
    out.ring_of[v] = static_cast<std::int32_t>(j);
    out.rel_level[v] = levels[v] - ring.first_layer;
    ring.members.push_back(v);
    ring.depth = std::max(ring.depth, out.rel_level[v]);
    if (out.rel_level[v] == 0) ring.roots.push_back(v);
  }
  return out;
}

level_t ring_width_for(level_t depth, double ring_divisor) {
  // A single ring when asked for, and below depth 3, where the [DEV-6]
  // minimum width already covers every layer (std::clamp needs 3 <= depth + 1).
  if (ring_divisor <= 0.0 || depth < 3) return depth + 1;
  // Clamped to depth + 1 before the cast, so a tiny divisor cannot overflow
  // level_t (std::min keeps its first argument when the quotient is NaN).
  const double w = std::min(static_cast<double>(depth) + 1.0,
                            static_cast<double>(depth) / ring_divisor);
  return std::clamp<level_t>(static_cast<level_t>(w), 3, depth + 1);
}

}  // namespace rn::core
