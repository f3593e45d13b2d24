// Topology generators for the experiments. Each returns a connected graph,
// filled straight from its own edge loop by graph::from_edges, which replays
// the loop twice (count, scatter) and never stores a pair list.
//
// The workhorse for diameter-controlled experiments is `random_layered`: D+1
// layers of a given width with random inter-layer edges, so the BFS depth from
// node 0 is exactly D while the layer width controls contention (this is the
// shape the paper's lower-bound graphs and the classic Decay analyses use).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstddef>

#include "common/check.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace rn::graph {

namespace detail {

/// Calls fn(j) for every index j in [0, m) that passes an independent
/// Bernoulli(p) trial, using geometric skip-sampling: one uniform draw per
/// *success* (plus one trailing miss) instead of one per index. At the
/// sparse densities the scale sweeps use (p ~ 40/width) this makes G(n,p)
/// style generation O(edges) instead of O(pairs); at n = 10^5+ that is the
/// difference between milliseconds and seconds per trial.
template <class Fn>
void bernoulli_indices(rng& r, std::size_t m, double p, Fn&& fn) {
  if (m == 0 || p <= 0.0) return;
  if (p >= 1.0) {
    for (std::size_t j = 0; j < m; ++j) fn(j);
    return;
  }
  const double log_q = std::log1p(-p);  // < 0
  std::size_t j = 0;
  for (;;) {
    // Failures before the next success: floor(log(1-u) / log(1-p)).
    const double skip = std::floor(std::log1p(-r.uniform01()) / log_q);
    if (skip >= static_cast<double>(m - j)) return;
    j += static_cast<std::size_t>(skip);
    fn(j);
    if (++j >= m) return;
  }
}

}  // namespace detail

/// Simple path v0 - v1 - ... - v_{n-1}.
[[nodiscard]] graph path(std::size_t n);

/// Cycle over n >= 3 nodes.
[[nodiscard]] graph cycle(std::size_t n);

/// Star: node 0 is the hub of n-1 leaves.
[[nodiscard]] graph star(std::size_t n);

/// Complete graph on n nodes.
[[nodiscard]] graph complete(std::size_t n);

/// rows x cols grid; node (r, c) has id r*cols + c.
[[nodiscard]] graph grid(std::size_t rows, std::size_t cols);

/// Balanced binary tree on n nodes (heap indexing).
[[nodiscard]] graph binary_tree(std::size_t n);

/// Caterpillar: a spine path of `spine` nodes, each with `legs` leaves.
[[nodiscard]] graph caterpillar(std::size_t spine, std::size_t legs);

/// Parameters for `random_layered`.
struct layered_options {
  std::size_t depth = 8;       ///< number of hops from node 0 to the last layer
  std::size_t width = 8;       ///< nodes per intermediate layer
  double edge_prob = 0.5;      ///< probability of each cross-layer edge
  double intra_prob = 0.0;     ///< probability of each same-layer edge
  std::uint64_t seed = 1;
};

/// Layer 0 = {node 0}; layers 1..depth have `width` nodes each. Every node in
/// layer i+1 gets at least one neighbor in layer i (so eccentricity of node 0
/// is exactly `depth`), plus random cross/intra-layer edges.
[[nodiscard]] graph random_layered(const layered_options& opt);

/// Streams the edges of `random_layered(opt)` as `fn(u, v)` calls without
/// building the graph: same seed, same RNG draw order, and each undirected
/// edge emitted exactly once. The only duplicate the layered draw can make
/// is a Bernoulli cross-layer pick landing on the node already chosen as the
/// guaranteed parent, and this stream skips exactly that pick, so it is
/// duplicate-free; `random_layered` fills its CSR from it (graph identity by
/// construction). Replaying with the same options replays the identical edge
/// sequence, which graph::from_edges and a rank's partitioned view require.
template <class Fn>
void for_each_layered_edge(const layered_options& opt, Fn&& fn) {
  RN_REQUIRE(opt.depth >= 1 && opt.width >= 1, "layered graph dimensions");
  rng r(opt.seed);
  auto layer_node = [&](std::size_t layer, std::size_t i) -> node_id {
    // Layer 0 is just node 0.
    return layer == 0 ? 0
                      : static_cast<node_id>(1 + (layer - 1) * opt.width + i);
  };
  auto layer_size = [&](std::size_t layer) -> std::size_t {
    return layer == 0 ? 1 : opt.width;
  };
  for (std::size_t layer = 1; layer <= opt.depth; ++layer) {
    const std::size_t prev = layer_size(layer - 1);
    for (std::size_t i = 0; i < layer_size(layer); ++i) {
      const node_id v = layer_node(layer, i);
      // Guarantee one parent so BFS depth is exact.
      const std::size_t parent = r.uniform(prev);
      fn(v, layer_node(layer - 1, parent));
      detail::bernoulli_indices(r, prev, opt.edge_prob, [&](std::size_t j) {
        if (j != parent) fn(v, layer_node(layer - 1, j));
      });
      if (opt.intra_prob > 0)
        detail::bernoulli_indices(r, layer_size(layer) - i - 1, opt.intra_prob,
                                  [&](std::size_t j) {
                                    fn(v, layer_node(layer, i + 1 + j));
                                  });
    }
  }
}

/// Streams attempt `attempt` of `random_gnp_connected(n, p, seed)` as
/// `fn(u, v)` calls with u < v: each pair is one Bernoulli(p) trial, and the
/// attempt draws from its own reseeded stream, so a replay is identical.
template <class Fn>
void for_each_gnp_edge(std::size_t n, double p, std::uint64_t seed,
                       std::uint64_t attempt, Fn&& fn) {
  rng r(seed + attempt * 0x51ed2701ULL);
  for (node_id i = 0; i < n; ++i)
    detail::bernoulli_indices(r, n - i - 1, p, [&](std::size_t j) {
      fn(i, static_cast<node_id>(i + 1 + j));
    });
}

/// Erdos-Renyi G(n, p) conditioned on connectivity: attempts 0, 1, ... of
/// `for_each_gnp_edge` until one is connected (p should be above the
/// threshold); after 64 disconnected attempts throws rn::input_error naming
/// n and p, since both come from the user's spec.
[[nodiscard]] graph random_gnp_connected(std::size_t n, double p,
                                         std::uint64_t seed);

/// Random unit-disk graph: n points uniform in [0,1]^2, edge iff distance <=
/// radius; resampled until connected, and rejected like G(n, p) after 64
/// disconnected draws. Edge discovery uses a radius-sized cell
/// grid, so generation is O(n + edges) expected — usable at n = 10^5+.
[[nodiscard]] graph random_unit_disk(std::size_t n, double radius,
                                     std::uint64_t seed);

/// Barabasi-Albert preferential attachment: nodes arrive one at a time and
/// attach `edges_per_node` edges to distinct earlier nodes, each chosen with
/// probability proportional to its current degree (node i < edges_per_node
/// attaches to all i earlier nodes). Connected by construction; the degree
/// distribution develops the power-law hub tail the sweep experiments need.
[[nodiscard]] graph power_law(std::size_t n, std::size_t edges_per_node,
                              std::uint64_t seed);

/// A chain of `cliques` cliques of size `clique_size`, consecutive cliques
/// joined by a single bridge edge. Diameter ~ 2 * cliques; heavy contention
/// inside cliques. Node 0 is in the first clique.
[[nodiscard]] graph clique_chain(std::size_t cliques, std::size_t clique_size);

/// Two cliques of size `side` joined by a path of length `bridge_len`.
[[nodiscard]] graph dumbbell(std::size_t side, std::size_t bridge_len);

}  // namespace rn::graph
