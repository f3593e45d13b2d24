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
  std::vector<std::uint32_t> prefix(g.node_count() + 1, 0);
  std::size_t total = 0;
  for (node_id v = 0; v < g.node_count(); ++v) {
    total += g.degree(v);
    prefix[v + 1] = static_cast<std::uint32_t>(total);
  }
  return compute_block_plan(prefix, blocks);
}

namespace {

void check_block_range(const block_plan& plan, unsigned first, unsigned last) {
  RN_REQUIRE(first < last && last <= plan.blocks(),
             "partitioned view needs a non-empty block range inside the plan");
}

}  // namespace

partitioned_view partitioned_view::from_graph(const graph& g,
                                              const block_plan& plan,
                                              unsigned first_block,
                                              unsigned last_block) {
  check_block_range(plan, first_block, last_block);
  partitioned_view pv;
  pv.node_count_ = g.node_count();
  pv.plan_ = plan;
  pv.first_block_ = first_block;
  pv.last_block_ = last_block;
  const node_id lo = pv.owned_begin();
  const node_id hi = pv.owned_end();

  pv.row_start_.assign(pv.node_count_ + 1, 0);
  std::size_t total = 0;
  for (node_id u = 0; u < pv.node_count_; ++u) {
    for (const node_id v : g.neighbors(u))
      if (v >= lo && v < hi) ++total;
    RN_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
               "partitioned adjacency too large for 32-bit offsets");
    pv.row_start_[u + 1] = static_cast<std::uint32_t>(total);
  }
  pv.adj_.reserve(total);
  // Graph rows are sorted ascending, so the filtered rows stay sorted.
  for (node_id u = 0; u < pv.node_count_; ++u)
    for (const node_id v : g.neighbors(u))
      if (v >= lo && v < hi) pv.adj_.push_back(v);
  return pv;
}

partitioned_view partitioned_view::from_edge_source(std::size_t node_count,
                                                    const edge_source& edges,
                                                    unsigned blocks,
                                                    unsigned first_block,
                                                    unsigned last_block) {
  RN_REQUIRE(node_count >= 1, "partitioned view needs >= 1 node");
  partitioned_view pv;
  pv.node_count_ = node_count;

  // Pass 1: the full degree prefix. This is what fixes the plan —
  // identically to a process holding the resident graph, because both run
  // compute_block_plan over the same prefix values.
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
  pv.plan_ = compute_block_plan(prefix, blocks);
  check_block_range(pv.plan_, first_block, last_block);
  pv.first_block_ = first_block;
  pv.last_block_ = last_block;
  const node_id lo = pv.owned_begin();
  const node_id hi = pv.owned_end();

  // Restricted per-row sizes follow from the filtered full prefix only when
  // we re-count, so pass 2 counts owned-range entries per row, prefixes,
  // then pass 2b (same replay) fills. The fill scatters in emission order; a
  // final per-row sort restores the ascending-neighbor contract the row
  // walks rely on.
  pv.row_start_.assign(node_count + 1, 0);
  edges([&](node_id u, node_id v) {
    if (v >= lo && v < hi) pv.row_start_[u + 1] += 1;
    if (u >= lo && u < hi) pv.row_start_[v + 1] += 1;
  });
  std::uint32_t owned_total = 0;
  for (std::size_t i = 0; i < node_count; ++i) {
    owned_total += pv.row_start_[i + 1];
    pv.row_start_[i + 1] = owned_total;
  }
  pv.adj_.assign(owned_total, 0);
  std::vector<std::uint32_t> cursor(pv.row_start_.begin(),
                                    pv.row_start_.end() - 1);
  edges([&](node_id u, node_id v) {
    if (v >= lo && v < hi) pv.adj_[cursor[u]++] = v;
    if (u >= lo && u < hi) pv.adj_[cursor[v]++] = u;
  });
  for (std::size_t u = 0; u < node_count; ++u)
    std::sort(pv.adj_.begin() + pv.row_start_[u],
              pv.adj_.begin() + pv.row_start_[u + 1]);
  return pv;
}

}  // namespace rn::graph
