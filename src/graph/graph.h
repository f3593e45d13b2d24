// Undirected simple graph with CSR-style adjacency, the substrate every radio
// network in this library runs on. Nodes are dense ids [0, n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "graph/fill_csr.h"

namespace rn::graph {

/// A CSR (compressed sparse row) adjacency: row u spans adj[row_start[u] ..
/// row_start[u+1]) and is strictly ascending. Offsets are 32-bit, so an
/// adjacency holds at most 2^32 - 1 entries.
struct csr_ref {
  const std::uint32_t* row_start = nullptr;
  const node_id* adj = nullptr;
};

/// Immutable undirected graph. Generators fill one straight from their edge
/// streams (`from_edges`); hand-built graphs go through `builder`.
class graph {
 public:
  graph() = default;

  /// The graph on `n` nodes whose edges `edges(add)` emits as add(u, v)
  /// calls, filled straight into the CSR with no pair list. `edges` runs
  /// twice (count, then scatter) and must replay identically; each edge gets
  /// builder::add_edge's range check, and self-loops and duplicates drop out,
  /// so the graph is the one a builder fed the same edges builds.
  template <class Edges>
  [[nodiscard]] static graph from_edges(std::size_t n, Edges&& edges) {
    graph g;
    fill_csr(
        n,
        [&](auto&& put) {
          edges([&](node_id u, node_id v) {
            RN_REQUIRE(u < n && v < n, "edge endpoint out of range");
            if (u == v) return;
            put(u, v);
            put(v, u);
          });
        },
        g.offsets_, g.adjacency_);
    return g;
  }

  [[nodiscard]] std::size_t node_count() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  [[nodiscard]] std::size_t edge_count() const { return adjacency_.size() / 2; }

  /// Neighbors of v in ascending id order.
  [[nodiscard]] std::span<const node_id> neighbors(node_id v) const;

  [[nodiscard]] std::size_t degree(node_id v) const;

  [[nodiscard]] bool has_edge(node_id u, node_id v) const;

  /// All edges as (u, v) with u < v.
  [[nodiscard]] std::vector<std::pair<node_id, node_id>> edges() const;

  /// True iff every node is reachable from node 0.
  [[nodiscard]] bool connected() const;

  /// Row offsets (size n + 1): offsets()[v] is the degree sum of nodes < v.
  [[nodiscard]] std::span<const std::uint32_t> offsets() const {
    return offsets_;
  }
  /// The adjacency itself, for walks that read it in place.
  [[nodiscard]] csr_ref csr() const {
    return {offsets_.data(), adjacency_.data()};
  }

  /// Collects the edges of a hand-built graph (tests, small experiments),
  /// then fills the CSR through `from_edges`.
  class builder {
   public:
    explicit builder(std::size_t n) : n_(n) {}
    /// Adds the undirected edge {u, v}; duplicates and self-loops ignored.
    void add_edge(node_id u, node_id v);
    [[nodiscard]] graph build() &&;

   private:
    std::size_t n_;
    std::vector<std::pair<node_id, node_id>> edges_;
  };

 private:
  std::vector<std::uint32_t> offsets_ = {0};  // size n+1
  std::vector<node_id> adjacency_;
};

}  // namespace rn::graph
