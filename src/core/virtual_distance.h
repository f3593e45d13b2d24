// Distributed virtual-distance labeling (paper Lemma 3.10).
//
// After a distributed GST construction every node knows its level, rank,
// parent, parent's rank and (if any) its same-rank child. This protocol
// teaches every node its directed distance from the roots in the virtual
// graph G' (graph edges + fast-stretch edges), which the MMV-GST schedule
// keys its slow transmissions to.
//
// For each distance value d (at most 2*ceil(log2 n) + 1 of them):
//  * stage 1 — per rank r, two sweeps of `depth` rounds each flood the label
//    d+1 down the fast stretches that start at distance-d stretch heads; only
//    matching parents transmit [DEV-3], so by GST collision-freeness each
//    stretch child hears exactly its parent.
//  * stage 2 — a Decay phase in which all distance-d nodes transmit; any
//    still-unlabeled receiver is at G'-distance d+1 via a graph edge.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/gst.h"
#include "core/params.h"
#include "graph/graph.h"

namespace rn::core {

struct vdist_labeling_result {
  std::vector<level_t> vdist;  ///< only members of the forest are labeled
  round_t rounds = 0;
  std::int64_t transmissions = 0;
  std::size_t unlabeled = 0;   ///< members left unlabeled (0 expected w.h.p.)
};

/// Labels one GST forest. `parent_rank`/`stretch_child` carry the local
/// knowledge produced by the distributed construction (see
/// `distributed_gst_outcome`). With `fast_forward`, rounds in which no node
/// can transmit (and no coin is flipped) are skipped via network::advance —
/// in particular everything after the largest reached distance value —
/// with bit-identical labels and round counts.
[[nodiscard]] vdist_labeling_result run_vdist_labeling(
    const graph::graph& g, const gst& t,
    const std::vector<rank_t>& parent_rank,
    const std::vector<node_id>& stretch_child, std::size_t n_hat,
    const params& prm, std::uint64_t seed, bool fast_forward = false);

}  // namespace rn::core
