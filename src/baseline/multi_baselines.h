// k-message broadcast baselines (no network coding):
//
//  * sequential — broadcast the k messages one at a time with classic Decay;
//    Theta(k * (D log n + log^2 n)) rounds. The natural strawman.
//  * routing    — pipelined store-and-forward: every informed node runs the
//    Decay schedule and transmits a uniformly random message from the set it
//    holds. This is the "routing" side of the routing-vs-coding comparison of
//    Ghaffari-Haeupler-Khabbazian [11]; its completion tail suffers a
//    coupon-collector factor that RLNC avoids.
#pragma once

#include <cstddef>

#include "core/options.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::baseline {

// Both broadcast `k` messages from `source` and read `opt.n_hat` (0 = use n),
// `opt.seed` and `opt.fast_forward` (defer transmitter-free rounds,
// bit-identical).

/// Sequential single-message Decay broadcasts.
[[nodiscard]] radio::broadcast_result run_sequential_decay_multi(
    const graph::graph& g, node_id source, std::size_t k,
    const core::options& opt);

/// Pipelined random-message routing over the Decay schedule.
[[nodiscard]] radio::broadcast_result run_routing_multi(
    const graph::graph& g, node_id source, std::size_t k,
    const core::options& opt);

}  // namespace rn::baseline
