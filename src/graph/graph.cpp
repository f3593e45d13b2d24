#include "graph/graph.h"

#include <algorithm>

#include "common/check.h"

namespace rn::graph {

std::span<const node_id> graph::neighbors(node_id v) const {
  RN_REQUIRE(v < node_count(), "node id out of range");
  return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::size_t graph::degree(node_id v) const {
  RN_REQUIRE(v < node_count(), "node id out of range");
  return offsets_[v + 1] - offsets_[v];
}

bool graph::has_edge(node_id u, node_id v) const {
  if (u >= node_count() || v >= node_count()) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<std::pair<node_id, node_id>> graph::edges() const {
  std::vector<std::pair<node_id, node_id>> out;
  out.reserve(edge_count());
  for (node_id u = 0; u < node_count(); ++u)
    for (node_id v : neighbors(u))
      if (u < v) out.emplace_back(u, v);
  return out;
}

bool graph::connected() const {
  if (node_count() == 0) return true;
  std::vector<char> seen(node_count(), 0);
  std::vector<node_id> stack{0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const node_id u = stack.back();
    stack.pop_back();
    for (node_id v : neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        ++visited;
        stack.push_back(v);
      }
    }
  }
  return visited == node_count();
}

void graph::builder::add_edge(node_id u, node_id v) {
  RN_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
  if (u == v) return;
  edges_.emplace_back(u, v);
}

graph graph::builder::build() && {
  return from_edges(n_, [this](auto&& add) {
    for (const auto& [u, v] : edges_) add(u, v);
  });
}

}  // namespace rn::graph
