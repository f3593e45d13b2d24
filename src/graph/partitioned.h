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
// A view is streamed from an edge stream (the full graph never
// materializes) through the same CSR fill as graph::from_edges: `from_plan`
// takes the plan a process holding the graph computed and replays the stream
// twice (count, scatter), reporting the entry count between the two;
// `from_edge_source` first derives the plan itself from one more replay (the
// degree pass). The streamed path is what lets an n = 10^8 trial fit a rank
// in a few GB — see graph/generators.h `for_each_layered_edge`. A process
// that holds the resident graph needs no view: the block walker
// (radio/block_walk.h) clips the graph's own rows to its blocks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "graph/fill_csr.h"
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
};

/// Computes the canonical degree-balanced plan from a CSR row-offset prefix
/// (`row_prefix[v]` = sum of degrees of nodes < v; size n + 1). This is the
/// exact algorithm the round engine has used since the channel-v1 contract:
/// block b starts at the first row whose prefix reaches `total * b / blocks`
/// (32-bit arithmetic on the prefix, monotone bounds). Any change here
/// re-baselines every erasure-channel result — bump kChannelContract instead.
[[nodiscard]] block_plan compute_block_plan(
    std::span<const std::uint32_t> row_prefix, unsigned blocks);

/// The same plan for a resident graph, from its own row offsets.
[[nodiscard]] block_plan compute_block_plan(const graph& g, unsigned blocks);

/// Calls `sink(u, v)` exactly once per undirected edge, in a deterministic
/// order. `from_edge_source` invokes the source three times (degree, count
/// and scatter passes) — sources must replay identically, which the
/// deterministic generators do by reseeding.
using edge_sink = std::function<void(node_id, node_id)>;
using edge_source = std::function<void(const edge_sink&)>;

/// In-edge CSR for a contiguous block range of a plan: row u holds the
/// neighbors of u that lie inside [owned_begin(), owned_end()), ascending.
class partitioned_view {
 public:
  partitioned_view() = default;

  /// Fills blocks [first_block, last_block) of `plan` — the plan the full
  /// graph's degrees give, shipped by a process that holds the graph — from
  /// two replays of `edges` (count, scatter). `edges(add)` must call
  /// add(u, v) exactly once per undirected edge and replay identically; a
  /// template sink, so no call per edge goes through a std::function.
  /// `counted(total)` runs between the replays with the view's entry count
  /// (fill_csr), which equals adjacency().size() for a stream that never
  /// repeats an edge.
  template <class Edges, class Counted = ignore_count>
  [[nodiscard]] static partitioned_view from_plan(std::size_t node_count,
                                                  block_plan plan,
                                                  unsigned first_block,
                                                  unsigned last_block,
                                                  Edges&& edges,
                                                  Counted counted = {});

  /// Derives the plan from one degree replay of `edges` (what a process
  /// without the graph must do), then fills as `from_plan`: three replays in
  /// all, and never the full adjacency.
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

  /// The restricted CSR: row u holds u's neighbors inside the owned range.
  [[nodiscard]] csr_ref csr() const { return {row_start_.data(), adj_.data()}; }
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

template <class Edges, class Counted>
partitioned_view partitioned_view::from_plan(std::size_t node_count,
                                             block_plan plan,
                                             unsigned first_block,
                                             unsigned last_block,
                                             Edges&& edges, Counted counted) {
  RN_REQUIRE(node_count >= 1, "partitioned view needs >= 1 node");
  RN_REQUIRE(!plan.bounds.empty() && plan.bounds.back() == node_count,
             "partitioned view plan does not end at the node count");
  RN_REQUIRE(first_block < last_block && last_block <= plan.blocks(),
             "partitioned view needs a non-empty block range inside the plan");
  partitioned_view pv;
  pv.node_count_ = node_count;
  pv.plan_ = std::move(plan);
  pv.first_block_ = first_block;
  pv.last_block_ = last_block;
  const node_id lo = pv.owned_begin();
  const node_id hi = pv.owned_end();
  // The fill over the entries whose listener is owned.
  fill_csr(
      node_count,
      [&](auto&& put) {
        edges([&](node_id u, node_id v) {
          RN_REQUIRE(u < node_count && v < node_count && u != v,
                     "edge source emitted an invalid edge");
          if (v >= lo && v < hi) put(u, v);
          if (u >= lo && u < hi) put(v, u);
        });
      },
      pv.row_start_, pv.adj_, std::move(counted));
  return pv;
}

}  // namespace rn::graph
