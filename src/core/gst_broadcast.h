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
#include "core/options.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::core {

// Both runners read `opt.n_hat` (0 = graph size), `opt.seed`,
// `opt.prm.schedule_slack` (the round budget) and `opt.fast_forward` (skip
// transmitter-free rounds via network::advance; bit-identical results, see
// README "Fast-forward execution").

/// Single-message broadcast over one GST forest. `informed` lists the nodes
/// that initially hold the message (the source, or a ring's inner boundary).
/// Only forest members are simulated and tracked. The ablation seams:
/// `mmv_noise` makes prompted nodes without data jam (Definition 3.1),
/// `classic_levels` keys slow rounds by level (E5), and `exact_rounds` > 0
/// runs exactly that many rounds instead of stopping at completion within
/// the slack budget.
[[nodiscard]] radio::broadcast_result run_gst_single_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<node_id>& informed, const options& opt,
    bool mmv_noise = false, bool classic_levels = false,
    round_t exact_rounds = 0);

/// RLNC k-message broadcast over one GST forest (Theorem 1.2 when the forest
/// is a single-source whole-graph GST). `source_messages[v]` holds the plain
/// messages initially known to v (typically empty except at the source),
/// each of `opt.payload_size` bytes. On return, `decoders` (if non-null)
/// receives each member's final decoder so callers can verify the decoded
/// payloads.
[[nodiscard]] radio::broadcast_result run_gst_rlnc_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<std::vector<coding::message>>& source_messages,
    std::size_t k, const options& opt,
    std::vector<coding::rlnc_node>* decoders = nullptr);

}  // namespace rn::core
