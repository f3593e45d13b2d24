// Single-message broadcast algorithms.
//
//  * Known topology ([7] as black box, realized by the paper's own GST
//    schedule): O(D + log^2 n) — build a GST centrally, broadcast on it.
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

#include "core/gst.h"
#include "core/gst_distributed.h"
#include "core/params.h"
#include "core/rings.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::core {

struct single_broadcast_options {
  std::size_t n_hat = 0;
  level_t d_hat = 0;  ///< 0 = use the source's true eccentricity
  std::uint64_t seed = 1;
  params prm = params::paper();
  /// Skip transmitter-free rounds in every phase (construction, labeling,
  /// relay) via network::advance. Bit-identical results; see README
  /// "Fast-forward execution".
  bool fast_forward = false;
};

/// Known-topology single-message broadcast (GST built centrally, no rounds
/// charged for construction, as in [7]).
[[nodiscard]] radio::broadcast_result run_known_single_broadcast(
    const graph::graph& g, node_id source, const single_broadcast_options& opt);

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
};

[[nodiscard]] unknown_topology_setup prepare_unknown_topology(
    const graph::graph& g, node_id source, const single_broadcast_options& opt);

/// Theorem 1.1: unknown topology, collision detection.
[[nodiscard]] radio::broadcast_result run_unknown_cd_single_broadcast(
    const graph::graph& g, node_id source, const single_broadcast_options& opt);

}  // namespace rn::core
