#include "graph/partitioned.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace rn::graph {

block_plan compute_block_plan(std::span<const std::uint32_t> row_prefix,
                              unsigned blocks) {
  RN_REQUIRE(blocks >= 1, "block plan needs >= 1 block");
  RN_REQUIRE(!row_prefix.empty(), "block plan needs a row prefix");
  const std::size_t node_count = row_prefix.size() - 1;
  const std::size_t total = row_prefix[node_count];
  block_plan plan;
  plan.bounds.assign(blocks + 1, 0);
  plan.bounds[blocks] = static_cast<node_id>(node_count);
  for (unsigned b = 1; b < blocks; ++b) {
    const std::uint32_t target =
        static_cast<std::uint32_t>(total * b / blocks);
    const auto it =
        std::lower_bound(row_prefix.begin(), row_prefix.end(), target);
    auto v = static_cast<node_id>(it - row_prefix.begin());
    if (v > node_count) v = static_cast<node_id>(node_count);
    plan.bounds[b] = std::max(plan.bounds[b - 1], v);
  }
  return plan;
}

block_plan compute_block_plan(const graph& g, unsigned blocks) {
  return compute_block_plan(g.offsets(), blocks);
}

partitioned_view partitioned_view::from_edge_source(std::size_t node_count,
                                                    const edge_source& edges,
                                                    unsigned blocks,
                                                    unsigned first_block,
                                                    unsigned last_block) {
  // The degree pass fixes the plan — identically to a process holding the
  // resident graph, because both run compute_block_plan over the same
  // prefix values.
  block_plan plan;
  {
    std::vector<std::uint32_t> prefix(node_count + 1, 0);
    std::uint64_t total = 0;
    edges([&](node_id u, node_id v) {
      RN_REQUIRE(u < node_count && v < node_count && u != v,
                 "edge source emitted an invalid edge");
      prefix[u + 1] += 1;
      prefix[v + 1] += 1;
      total += 2;
    });
    RN_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
               "adjacency too large for 32-bit CSR offsets");
    for (std::size_t i = 0; i < node_count; ++i) prefix[i + 1] += prefix[i];
    plan = compute_block_plan(prefix, blocks);
  }
  return from_plan(node_count, std::move(plan), first_block, last_block,
                   edges);
}

}  // namespace rn::graph
