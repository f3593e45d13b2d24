// Distributed GST construction (paper Theorem 2.1, sections 2.2.2-2.2.4).
//
// Given a BFS layering split into rings, the construction solves one
// `assignment_problem` per (ring, blue layer, rank) triple, from the deepest
// layer upwards and from the highest rank downwards.
//
// Pipelined scheduling (section 2.2.4): problem (layer λ, rank i) runs in slot
//   σ(λ, i) = 2·(w_max − λ) + (L − i)
// which satisfies all data dependencies (σ(λ+1, i), σ(λ+1, i+1), σ(λ, i+1)
// all precede σ(λ, i)) and places simultaneously-running problems on
// *consecutive* layers. Each slot is 3·R rounds (R = per-problem rounds), and
// a problem only consumes rounds t with t ≡ (absolute blue layer) (mod 3):
// same-slot same-class problems are then ≥ 3 absolute layers apart, so their
// transmitters and listeners can never be adjacent — this realizes the
// paper's "interleave them in even and odd rounds" idea, extended to the full
// pipeline and to parallel rings. Total: O(D log^4 n + log^5 n) rounds.
//
// Sequential mode (the section 2.2.3 baseline, O(D log^5 n)) runs one problem
// per slot of R rounds; experiment E4 measures the gap.
#pragma once

#include <cstdint>
#include <vector>

#include "core/assignment.h"
#include "core/gst.h"
#include "core/options.h"
#include "core/rings.h"
#include "graph/graph.h"

namespace rn::core {

struct distributed_gst_outcome {
  std::vector<gst> forests;  ///< one per ring
  round_t rounds = 0;
  std::int64_t transmissions = 0;
  int fallback_finalizations = 0;  ///< [DEV-9] diagnostics (0 expected)
  int fallback_adoptions = 0;
  /// Per-node knowledge each node ends up with locally (parent rank and
  /// same-rank child), needed by schedules without central help.
  std::vector<rank_t> parent_rank;
  std::vector<node_id> stretch_child;
};

/// Runs the construction for every ring of `rd` in parallel on one shared
/// radio network. Reads `opt.n_hat`, `opt.seed`, `opt.prm` and
/// `opt.fast_forward`, which skips provably-idle rounds (no problem transmits
/// or draws randomness) via network::advance: bit-identical results, orders
/// of magnitude fewer simulated rounds — most (ring, layer, rank) problems
/// are empty or go quiet after a few epochs. `pipelined == false` runs the
/// section 2.2.3 sequential baseline.
[[nodiscard]] distributed_gst_outcome build_gst_distributed(
    const graph::graph& g, const ring_decomposition& rd, const options& opt,
    bool pipelined = true);

/// Convenience wrapper: whole graph as a single ring rooted at `source`,
/// layered with the (CD-free) Decay-epoch BFS; this is Theorem 2.1 end to
/// end. Rounds include the layering.
[[nodiscard]] distributed_gst_outcome build_gst_distributed_single(
    const graph::graph& g, node_id source, const options& opt,
    bool pipelined = true);

}  // namespace rn::core
