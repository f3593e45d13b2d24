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
// A rank fills its view from rows a process holding the graph ships
// (`filler`): first the length of every view row, then the full adjacency
// row of each owned listener in ascending order. Listener v goes to the view
// row of each of its neighbors, so every row comes out sorted with no sort
// pass, and the filler never holds the shipped rows: it scatters each batch
// as it arrives. A view can also be streamed from an edge stream:
// `from_edge_source` derives the plan from one degree replay, then fills
// through the same CSR fill as graph::from_edges (count, scatter); it is kept
// for bench/perf/layer_trace.cpp's graph.partition_ms probe. A process that
// holds the resident graph needs no view: the block walker
// (radio/block_walk.h) clips the graph's own rows to its blocks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
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

  class filler;

  /// Fills blocks [first_block, last_block) of the plan that one degree
  /// replay of `edges` gives, from two more replays (count, scatter): three
  /// replays in all, and never the full adjacency.
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

/// Fills a view from shipped rows, in two stages that each arrive in order
/// and in any batches: the view row lengths of all node_count rows, then,
/// ascending, the full adjacency row of every owned listener. A listener
/// batch scatters into the view as it is added, so the filler holds the view
/// and nothing else. Throws contract_error on a batch out of order or an
/// entry that the lengths leave no room for.
class partitioned_view::filler {
 public:
  /// A view of blocks [first_block, last_block) of `plan`, whose last bound
  /// is the node count.
  filler(block_plan plan, unsigned first_block, unsigned last_block);

  /// Stage 1: lengths of view rows [first_row, first_row + lengths.size()).
  void add_lengths(node_id first_row, std::span<const std::uint32_t> lengths);
  /// Stage 2: the rows of listeners [first, first + offsets.size() - 1);
  /// listener first + i's neighbors are adj[offsets[i] - offsets[0],
  /// offsets[i + 1] - offsets[0]), whatever base the offsets count from.
  void add_rows(node_id first, std::span<const std::uint32_t> offsets,
                std::span<const node_id> adj);

  [[nodiscard]] bool lengths_done() const {
    return next_row_ == view_.node_count_;
  }
  [[nodiscard]] bool rows_done() const {
    return lengths_done() && next_listener_ == view_.owned_end();
  }
  /// The filled view; every entry the lengths promised must have arrived.
  [[nodiscard]] partitioned_view finish() &&;

 private:
  partitioned_view view_;
  std::size_t next_row_ = 0;
  node_id next_listener_ = 0;
  std::uint64_t scattered_ = 0;
};

}  // namespace rn::graph
