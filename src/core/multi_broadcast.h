// k-message broadcast algorithms (paper section 3).
//
//  * Theorem 1.2 (known topology): O(D + k log n + log^2 n) — random linear
//    network coding over the MMV-GST schedule of a centrally built GST. With
//    known topology the coefficient headers cost nothing (footnote 5), so all
//    k messages are coded together.
//  * Theorem 1.3 (unknown topology + CD): O(D + k log n + log^6 n) — the
//    Theorem 1.1 preprocessing (wave, rings, distributed GSTs, virtual
//    distances), then the messages travel in batches ("generations") of
//    Theta(log n) [DEV-7]: inside a ring a batch is broadcast with RLNC on
//    the ring's GST schedule; between rings the decoded batch is handed off
//    with fountain-coded FEC packets over Decay phases; batches pipeline so
//    every ring works on at most one batch at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/rlnc.h"
#include "core/options.h"
#include "core/single_broadcast.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::core {

struct multi_broadcast_result {
  radio::broadcast_result base;
  bool payloads_verified = false;  ///< every node decoded every message bit-exactly
};

/// Theorem 1.2. `messages` all start at `source`, each of
/// `opt.payload_size` bytes. The options are read as by the single-message
/// runners (single_broadcast.h).
[[nodiscard]] multi_broadcast_result run_known_multi_broadcast(
    const graph::graph& g, node_id source,
    const std::vector<coding::message>& messages, const options& opt);

/// Theorem 1.3. The batch pipeline stops at completion and counts the rest
/// of its prescribed rounds as idle, as the Theorem 1.1 relay does.
[[nodiscard]] multi_broadcast_result run_unknown_cd_multi_broadcast(
    const graph::graph& g, node_id source,
    const std::vector<coding::message>& messages, const options& opt);

}  // namespace rn::core
