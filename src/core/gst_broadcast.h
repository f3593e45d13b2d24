// Broadcast runners on top of a (valid) GST:
//
//  * single-message  — the [7]-style O(D + log^2 n) broadcast used as a black
//    box by Theorem 1.1 (realized here by the paper's own MMV-GST schedule,
//    which by Lemma 3.3 with delta = 1/poly(n) achieves the same bound), with
//    optional MMV noise injection (Definition 3.1) and the classic
//    level-keyed ablation.
//  * RLNC multi-message — the Theorem 1.2 engine: every prompted node sends a
//    fresh random linear combination of what it holds, except interior
//    stretch nodes which relay the packet received from their stretch
//    predecessor (section 3.3.2).
#pragma once

#include <cstdint>
#include <vector>

#include "coding/rlnc.h"
#include "core/gst.h"
#include "core/params.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::core {

struct gst_broadcast_options {
  std::size_t n_hat = 0;       ///< 0 = graph size
  round_t max_rounds = 0;      ///< 0 = budget from params::schedule_slack
  std::uint64_t seed = 1;
  bool mmv_noise = false;      ///< prompted nodes without data jam (Def. 3.1)
  bool classic_levels = false; ///< slow keyed by level (E5 ablation)
  bool stop_when_complete = true;
  /// Skip transmitter-free rounds via network::advance (bit-identical
  /// results; see README "Fast-forward execution").
  bool fast_forward = false;
  params prm = params::paper();
};

/// Single-message broadcast over one GST forest. `informed` lists the nodes
/// that initially hold the message (the source, or a ring's inner boundary).
/// Only forest members are simulated and tracked.
[[nodiscard]] radio::broadcast_result run_gst_single_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<node_id>& informed, const gst_broadcast_options& opt);

struct rlnc_broadcast_options {
  std::size_t n_hat = 0;
  std::uint64_t seed = 1;
  bool fast_forward = false;  ///< as in gst_broadcast_options
  params prm = params::paper();
};

/// RLNC k-message broadcast over one GST forest (Theorem 1.2 when the forest
/// is a single-source whole-graph GST). `source_messages[v]` holds the plain
/// messages initially known to v (typically empty except at the source).
/// On return, `decoders` (if non-null) receives each member's final decoder
/// so callers can verify the decoded payloads.
[[nodiscard]] radio::broadcast_result run_gst_rlnc_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<std::vector<coding::message>>& source_messages,
    std::size_t k, std::size_t payload_size, const rlnc_broadcast_options& opt,
    std::vector<coding::rlnc_node>* decoders = nullptr);

}  // namespace rn::core
