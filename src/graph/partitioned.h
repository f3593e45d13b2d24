// Partitioned CSR views: the graph representation that no longer assumes one
// resident adjacency.
//
// The round engine's shard plan — `kChannelContractBlocks` contiguous
// listener ranges balanced by adjacency volume — is computed here from the
// CSR row-offset prefix alone, so every process that can reproduce the degree
// sequence reproduces the *identical* plan without holding the graph. A
// `partitioned_view` is the in-edge CSR restricted to a contiguous range of
// those blocks: row u lists only the neighbors of u that fall inside the
// owned listener range. A worker rank holding blocks [first, last) can tally
// every transmitter's hits on its own listeners from its view alone, because
// rows are complete per listener even when they are partial per transmitter.
//
// Views can be built two ways: filtered from a resident `graph`, or streamed
// from an edge source (two deterministic passes; the full graph never
// materializes). The streamed path is what lets an n = 10^8 trial fit a rank
// in a few GB — see graph/generators.h `for_each_layered_edge`.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace rn::graph {

/// The fixed listener partition: `bounds[b] .. bounds[b+1]` is block b.
/// Equality of plans across processes is what keeps the distributed
/// reception dispatch byte-identical to the single-process walk.
struct block_plan {
  std::vector<node_id> bounds;  ///< size blocks() + 1, ascending

  [[nodiscard]] unsigned blocks() const {
    return bounds.empty() ? 0 : static_cast<unsigned>(bounds.size() - 1);
  }
  [[nodiscard]] node_id block_begin(unsigned b) const { return bounds[b]; }
  [[nodiscard]] node_id block_end(unsigned b) const { return bounds[b + 1]; }
};

/// Computes the canonical degree-balanced plan from a CSR row-offset prefix
/// (`row_prefix[v]` = sum of degrees of nodes < v; size n + 1). This is the
/// exact algorithm the round engine has used since the channel-v1 contract:
/// block b starts at the first row whose prefix reaches `total * b / blocks`
/// (32-bit arithmetic on the prefix, monotone bounds). Any change here
/// re-baselines every erasure-channel result — bump kChannelContract instead.
[[nodiscard]] block_plan compute_block_plan(
    std::span<const std::uint32_t> row_prefix, unsigned blocks);

/// The same plan for a resident graph, from its degree sequence.
[[nodiscard]] block_plan compute_block_plan(const graph& g, unsigned blocks);

/// Calls `sink(u, v)` exactly once per undirected edge, in a deterministic
/// order. A build invokes the source several times (degree pass, count pass,
/// fill pass) — sources must replay identically, which the deterministic
/// generators do by reseeding.
using edge_sink = std::function<void(node_id, node_id)>;
using edge_source = std::function<void(const edge_sink&)>;

/// In-edge CSR for a contiguous block range of a plan: row u holds the
/// neighbors of u that lie inside [owned_begin(), owned_end()), ascending.
class partitioned_view {
 public:
  partitioned_view() = default;

  /// Filters a resident graph down to the view for blocks [first, last) of
  /// `plan`. The plan must have been computed from this graph's degrees.
  [[nodiscard]] static partitioned_view from_graph(const graph& g,
                                                   const block_plan& plan,
                                                   unsigned first_block,
                                                   unsigned last_block);

  /// Streams `edges` (several identical replays: degrees — which also fix
  /// the plan — then count and fill) and never materializes the full
  /// adjacency. `edges` must emit each undirected edge exactly once and
  /// replay identically across passes.
  [[nodiscard]] static partitioned_view from_edge_source(
      std::size_t node_count, const edge_source& edges, unsigned blocks,
      unsigned first_block, unsigned last_block);

  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] const block_plan& plan() const { return plan_; }
  [[nodiscard]] unsigned first_block() const { return first_block_; }
  [[nodiscard]] unsigned last_block() const { return last_block_; }
  [[nodiscard]] node_id owned_begin() const {
    return plan_.bounds[first_block_];
  }
  [[nodiscard]] node_id owned_end() const { return plan_.bounds[last_block_]; }

  /// Restricted CSR row of u: neighbors of u inside the owned range.
  [[nodiscard]] std::span<const node_id> row(node_id u) const {
    return {adj_.data() + row_start_[u], adj_.data() + row_start_[u + 1]};
  }
  [[nodiscard]] const std::vector<std::uint32_t>& row_start() const {
    return row_start_;
  }
  [[nodiscard]] const std::vector<node_id>& adjacency() const { return adj_; }

 private:
  std::size_t node_count_ = 0;
  block_plan plan_;
  unsigned first_block_ = 0;
  unsigned last_block_ = 0;
  std::vector<std::uint32_t> row_start_;  ///< size node_count_ + 1
  std::vector<node_id> adj_;              ///< owned-range neighbors, sorted
};

}  // namespace rn::graph
