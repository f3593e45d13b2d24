// Single-message broadcast algorithms.
//
//  * Known topology ([7] as black box, realized by the paper's own GST
//    schedule): O(D + log^2 n) — build a GST centrally, broadcast on it.
//    By Lemma 3.3 with delta = 1/poly(n), the MMV-GST schedule achieves the
//    [7] bound.
//  * Theorem 1.1 (unknown topology + collision detection): O(D + log^6 n) —
//      1. collision-wave BFS layering (D rounds, uses CD),
//      2. ring decomposition,
//      3. distributed GST construction for all rings in parallel,
//      4. distributed virtual-distance labeling (rings sequential [DEV-10];
//         per-ring cost O(w log^2 n + log^3 n) keeps the total O(D log^2 n)),
//      5. ring-by-ring broadcast: the GST schedule inside each ring, then a
//         Decay handoff from the ring's outer boundary to the next ring.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/gst.h"
#include "core/gst_distributed.h"
#include "core/options.h"
#include "core/rings.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::core {

// The runners read `opt.n_hat`, `opt.d_hat` (0 = the source's true
// eccentricity), `opt.seed`, `opt.prm` and `opt.fast_forward`, which skips
// transmitter-free rounds in every phase (layering, construction, labeling,
// relay) via network::advance. Bit-identical results; see README
// "Fast-forward execution".

/// Known-topology single-message broadcast (GST built centrally, no rounds
/// charged for construction, as in [7]).
[[nodiscard]] radio::broadcast_result run_known_single_broadcast(
    const graph::graph& g, node_id source, const options& opt);

/// Single-message broadcast over one GST forest. `informed` lists the nodes
/// that initially hold the message (the source, or a ring's inner boundary).
/// Only forest members are simulated and tracked; the run stops at
/// completion within the slack budget. The ablation seams: `mmv_noise` makes
/// prompted nodes without data jam (Definition 3.1), and `classic_levels`
/// keys slow rounds by level (E5).
[[nodiscard]] radio::broadcast_result run_gst_single_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<node_id>& informed, const options& opt,
    bool mmv_noise = false, bool classic_levels = false);

/// Everything Theorems 1.1/1.3 need before data flows: layering, rings,
/// per-ring GSTs with local stretch knowledge, virtual distances.
struct unknown_topology_setup {
  ring_decomposition rings;
  std::vector<gst> forests;             ///< per ring
  std::vector<gst_derived> derived;     ///< from locally learned knowledge
  round_t wave_rounds = 0;
  round_t construction_rounds = 0;
  round_t labeling_rounds = 0;
  int fallback_finalizations = 0;
  int fallback_adoptions = 0;
  std::size_t unlabeled = 0;
  [[nodiscard]] round_t total_rounds() const {
    return wave_rounds + construction_rounds + labeling_rounds;
  }
  /// The three setup phases, in order, for a result's `phase_rounds`.
  [[nodiscard]] std::vector<std::pair<const char*, round_t>> phase_rounds()
      const {
    return {{"bfs_wave", wave_rounds},
            {"gst_construction", construction_rounds},
            {"vdist_labeling", labeling_rounds}};
  }
};

[[nodiscard]] unknown_topology_setup prepare_unknown_topology(
    const graph::graph& g, node_id source, const options& opt);

/// Theorem 1.1: unknown topology, collision detection. The relay stops at
/// completion and counts the rest of its prescribed rounds as idle, so
/// `rounds_executed` is the sum of `phase_rounds`.
[[nodiscard]] radio::broadcast_result run_unknown_cd_single_broadcast(
    const graph::graph& g, node_id source, const options& opt);

}  // namespace rn::core
