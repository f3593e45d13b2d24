// The Decay protocol family (Bar-Yehuda, Goldreich, Itai 1992) — the paper's
// primary baseline and also a building block of its constructions.
//
// Three variants:
//  * classic   — BGI Decay: every informed node runs phases of L rounds, and
//                transmits with probability 2^-i in round i of each phase.
//                O(D log n + log^2 n) w.h.p.
//  * leveled   — the paper's Lemma 3.2 schedule, keyed to BFS levels mod 3;
//                supports the MMV framework (uninformed prompted nodes send
//                noise). Same asymptotics; provably MMV via backwards analysis.
//  * tuned     — Czumaj-Rytter / Kowalski-Pelc stand-in [DEV-4]: Decay with
//                short phases of length ~log(n/D) interleaved with occasional
//                full-length phases; realizes O(D log(n/D) + log^2 n) on
//                layered workloads.
//
// Coin contract (rn-bench-v2): by default every variant draws its 2^-i coins
// from a *batched counter-based stream* — node v's coin bits come from the
// 64-bit blocks `counter_word(seed, v, k)`, consumed i bits per scheduled
// round — and each node's next transmit round is computed directly from
// those bits, so the runner keeps a calendar of upcoming transmissions
// instead of flipping a coin per informed node per round. Rounds with no
// scheduled transmitter are provably idle; with `fast_forward` they collapse
// into one O(1) `network::advance`, without it they are stepped one by one.
// The two modes are bit-identical by construction (`--no-fast-forward` is the
// cross-check). `draw_mode::per_round` keeps the historical per-node xoshiro
// streams as the distributional oracle for the batched contract — same
// completion-round law, different draw order (tests/test_broadcast.cpp
// compares quantiles). One per-round loop serves all three variants: each
// drawing node (an informed node; under leveled, every leveled node from
// round 0) flips one coin per prompted round, with the exponent read from
// the schedule's definition rather than from the batched cursor it checks.
// Both engines run their rounds on `core::trial_frame`.
#pragma once

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::baseline {

/// How the Decay coins are drawn; see the header comment.
enum class draw_mode : std::uint8_t {
  batched,    ///< counter-based 64-bit blocks, next-transmit rounds computed directly
  per_round,  ///< historical per-node xoshiro stream, one draw per scheduled round
};

// Every variant reads `opt.n_hat` (0 = use n), `opt.seed` and
// `opt.fast_forward` (skip transmitter-free rounds, bit-identical).

/// Classic BGI Decay single-message broadcast from `source`. It stops at
/// completion within a generous budget from n_hat and the graph.
[[nodiscard]] radio::broadcast_result run_decay_broadcast(
    const graph::graph& g, node_id source, const core::options& opt,
    draw_mode draws = draw_mode::batched);

/// Lemma 3.2 leveled Decay. `levels` must hold the BFS level of every node
/// (obtained e.g. from the collision-wave layering). `mmv_noise`:
/// Definition 3.1, prompted uninformed nodes jam.
[[nodiscard]] radio::broadcast_result run_leveled_decay_broadcast(
    const graph::graph& g, node_id source, const std::vector<level_t>& levels,
    const core::options& opt, bool mmv_noise = false,
    draw_mode draws = draw_mode::batched);

/// Czumaj-Rytter-style tuned Decay [DEV-4]. Also reads `opt.d_hat`, the
/// known diameter bound (0 = eccentricity of source).
[[nodiscard]] radio::broadcast_result run_tuned_decay_broadcast(
    const graph::graph& g, node_id source, const core::options& opt,
    draw_mode draws = draw_mode::batched);

}  // namespace rn::baseline
