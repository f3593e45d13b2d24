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
// streams (one draw per informed node per scheduled round) as the
// distributional oracle for the batched contract — same completion-round
// law, different draw order (tests/test_broadcast.cpp compares quantiles).
#pragma once

#include <cstdint>

#include "graph/bfs.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::baseline {

/// How the Decay coins are drawn; see the header comment.
enum class draw_mode : std::uint8_t {
  batched,    ///< counter-based 64-bit blocks, next-transmit rounds computed directly
  per_round,  ///< historical per-node xoshiro stream, one draw per scheduled round
};

struct decay_options {
  std::size_t n_hat = 0;       ///< known upper bound on n; 0 = use n
  round_t max_rounds = 0;      ///< 0 = generous default from n_hat & graph
  std::uint64_t seed = 1;
  bool stop_when_complete = true;    ///< stop the simulation at completion
  bool fast_forward = false;  ///< skip transmitter-free rounds (bit-identical)
  draw_mode draws = draw_mode::batched;
};

/// Classic BGI Decay single-message broadcast from `source`.
[[nodiscard]] radio::broadcast_result run_decay_broadcast(
    const graph::graph& g, node_id source, const decay_options& opt);

struct leveled_decay_options {
  std::size_t n_hat = 0;
  std::uint64_t seed = 1;
  bool mmv_noise = false;  ///< Definition 3.1: prompted uninformed nodes jam
  bool fast_forward = false;
  draw_mode draws = draw_mode::batched;
};

/// Lemma 3.2 leveled Decay. `levels` must hold the BFS level of every node
/// (obtained e.g. from the collision-wave layering).
[[nodiscard]] radio::broadcast_result run_leveled_decay_broadcast(
    const graph::graph& g, node_id source, const std::vector<level_t>& levels,
    const leveled_decay_options& opt);

struct tuned_decay_options {
  std::size_t n_hat = 0;
  level_t d_hat = 0;  ///< known diameter bound; 0 = eccentricity of source
  std::uint64_t seed = 1;
  bool fast_forward = false;
  draw_mode draws = draw_mode::batched;
};

/// Czumaj-Rytter-style tuned Decay [DEV-4].
[[nodiscard]] radio::broadcast_result run_tuned_decay_broadcast(
    const graph::graph& g, node_id source, const tuned_decay_options& opt);

}  // namespace rn::baseline
