// Distributed BFS-layering protocols.
//
//  * collision wave (paper, proof of Thm 1.1; needs collision detection):
//    the source transmits in every round; a node that first observes a
//    message-or-collision in round r learns level r and joins the wave.
//    Exactly D_hat rounds.
//  * Decay epochs (paper section 2.2.2; no CD): D_hat epochs of
//    Theta(log n) Decay phases; a node's level is the epoch of its first
//    reception. O(D log^2 n) rounds.
//
// The collision wave steps every round on a naive frame: its source
// transmits in every round, so no round is idle. The Decay epochs run in
// the caller's mode: with `fast_forward`, rounds in which no node transmits
// are skipped rather than stepped (bit-identical results).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/params.h"
#include "graph/graph.h"

namespace rn::core {

class trial_frame;

struct layering_result {
  std::vector<level_t> level;  ///< no_level if never reached
  round_t rounds = 0;
  std::int64_t transmissions = 0;
};

/// Runs `rounds` rounds of the collision wave from `source` on `f`, which
/// must use the CD model: the source transmits in every round, and a node
/// that first observes a message or a collision in round r gets level r and
/// transmits from round r + 1 on. Returns the levels (no_level where the
/// wave did not arrive).
[[nodiscard]] std::vector<level_t> collision_wave(trial_frame& f,
                                                  node_id source,
                                                  level_t rounds);

/// Collision-wave layering; requires the CD model. `d_hat` must be >= the
/// eccentricity of the source (constant-factor upper bounds only cost rounds).
[[nodiscard]] layering_result run_collision_wave_bfs(const graph::graph& g,
                                                     node_id source,
                                                     level_t d_hat);

/// Decay-epoch layering (works without CD).
[[nodiscard]] layering_result run_decay_epoch_bfs(
    const graph::graph& g, node_id source, level_t d_hat, std::size_t n_hat,
    const params& prm, std::uint64_t seed, bool fast_forward = false);

}  // namespace rn::core
