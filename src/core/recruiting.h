// The Recruiting protocol (paper Lemma 2.3).
//
// A bipartite primitive: red nodes adopt ("recruit") blue neighbors such that
// w.h.p. (a) every blue with a participating red neighbor is recruited,
// (b) every red knows whether it recruited 0, 1 or >= 2 blues, and (c) every
// recruited blue knows whether its parent recruited exactly one (it alone) or
// at least two blues.
//
// Iteration layout (L = ceil(log2 n_hat); L+5 rounds per iteration):
//   round 0        red beacon: each red transmits its id w.p. 2^-ceil(j/step)
//   rounds 1..L+1  blue Decay: unrecruited blues that heard red v answer
//                  (u.id, v.id) with probability 2^-(round-1)
//   round L+2      response: exactly the round-0 transmitters transmit again —
//                  echo(u) / sigma / grow_intent / empty (see below)
//   round L+3      ack [DEV-2]: the lone child of a grow_intent sender acks
//   round L+4      commit: round-0 transmitters again — sigma iff clean ack
//
// Because rounds L+2 and L+4 repeat the round-0 transmitter set exactly, any
// blue that received red v in round 0 also receives v's response and commit
// (identical interference pattern). This makes parent-class knowledge (c)
// consistent in every interleaving:
//   * class none -> solo: red heard exactly one blue; echoes its id.
//   * class none -> many: red heard >= 2 blues; sigma recruits every blue
//     that heard it in round 0 (>= 2 of them), all learning "many".
//   * class many growth:  sigma again; new recruits and old children all
//     learn/know "many".
//   * class solo -> many: guarded by the intent/ack/commit handshake so the
//     existing lone child never holds a stale "solo" belief [DEV-2].
//
// Coins are drawn ahead. Each participant's stream is drawn up to its next
// success, never past the end of a window in which the set of drawing nodes
// cannot change (`seek_success`); plan() emits exactly the participants whose
// success falls in the round, in participant order. Every draw stays where
// per-round drawing makes it, and quiet_rounds() is the distance to the
// nearest success. The windows here: round 0 of every remaining iteration
// (every red draws there), and ladder rounds 1..L+1 of one iteration (the
// unrecruited blues that heard a red in its round 0). The assignment
// problem's Decay sub-phases use the same helper.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "graph/graph.h"
#include "radio/network.h"

namespace rn::core {

/// The first position p in (after, end) at which `coins` succeeds with
/// probability 2^-exponent(p), or `end` if there is none. It draws exactly the
/// coins a per-position loop over after+1 .. p draws, in the same order
/// (rng::with_probability_pow2: exponent 0 succeeds and exponent >= 64 fails,
/// neither with a draw), so a stream ends where per-round drawing leaves it.
template <class Exponent>
[[nodiscard]] round_t seek_success(rng& coins, round_t after, round_t end,
                                   Exponent&& exponent) {
  for (round_t p = after + 1; p < end; ++p)
    if (coins.with_probability_pow2(exponent(p))) return p;
  return end;
}

class recruiting_instance {
 public:
  enum class klass : std::uint8_t { none, solo, many };

  struct config {
    const graph::graph* g = nullptr;
    std::vector<node_id> reds;
    std::vector<node_id> blues;  ///< initially unrecruited participants
    int L = 1;                   ///< decay ladder length
    int iterations = 1;
    int exp_step = 1;            ///< iterations per round-0 exponent increment
    std::uint64_t seed = 1;
  };

  explicit recruiting_instance(config c);

  [[nodiscard]] static round_t rounds_required(int L, int iterations) {
    return static_cast<round_t>(iterations) * (L + 5);
  }
  [[nodiscard]] round_t rounds_required() const {
    return rounds_required(cfg_.L, cfg_.iterations);
  }
  [[nodiscard]] bool finished() const { return round_ >= rounds_required(); }

  /// Appends this instance's transmissions for its next consumed round.
  void plan(radio::round_buffer& out);
  /// Delivers a reception to a participant (others are ignored).
  void on_reception(const radio::reception& rx);
  /// Advances the program counter; call exactly once per consumed round.
  void end_round();

  /// Fast-forward support: number of upcoming consumed rounds that are
  /// guaranteed *quiet* — this instance plans no transmission in them,
  /// provided it receives nothing (which holds whenever every participant of
  /// those rounds is quiet). With the coins drawn ahead that is the distance
  /// to the nearest transmission: the next red's round-0 success, the next
  /// ladder success, and the response, ack and commit rounds of an iteration
  /// whose round 0 had a beacon. A window may span many iterations in which
  /// no red beacons. 0 = the next round must be planned.
  [[nodiscard]] round_t quiet_rounds() const;
  /// Skips `k` quiet rounds (k <= quiet_rounds()) without planning them;
  /// equivalent to k plan/end_round cycles that produce nothing (a skipped
  /// round 0 still starts its iteration).
  void skip_rounds(round_t k);

  struct red_result {
    klass k = klass::none;
    node_id solo_child = no_node;  ///< valid iff k == solo
  };
  struct blue_result {
    bool recruited = false;
    node_id parent = no_node;
    klass parent_class = klass::none;  ///< solo or many once recruited
  };

  [[nodiscard]] red_result red(node_id v) const;
  [[nodiscard]] blue_result blue(node_id u) const;
  [[nodiscard]] const std::vector<node_id>& reds() const { return cfg_.reds; }
  [[nodiscard]] const std::vector<node_id>& blues() const { return cfg_.blues; }
  /// Number of blues not yet recruited.
  [[nodiscard]] std::size_t unrecruited_count() const;

 private:
  struct red_state {
    bool sent_r1 = false;
    std::vector<node_id> heard;  ///< distinct blues heard this iteration
    klass k = klass::none;
    node_id solo_child = no_node;
    bool intent = false;
    bool ack_ok = false;
    round_t beacon_at = 0;  ///< iteration of its next round-0 success
  };
  struct blue_state {
    node_id heard_red = no_node;  ///< red received in round 0 this iteration
    bool recruited = false;
    node_id parent = no_node;
    klass parent_class = klass::none;
    bool ack_due = false;
    round_t answer_at = 0;  ///< ladder position of its next success (L+2: none)
  };

  config cfg_;
  round_t round_ = 0;
  round_t next_beacon_ = 0;  ///< earliest beacon_at over the reds
  round_t next_answer_ = 0;  ///< earliest answer_at over the blues
  bool beaconed_ = false;    ///< a red transmitted this iteration's round 0
  bool acking_ = false;      ///< a blue owes an ack this iteration
  std::vector<red_state> red_;
  std::vector<blue_state> blue_;
  std::vector<std::int32_t> red_idx_;   // node -> index or -1
  std::vector<std::int32_t> blue_idx_;
  std::vector<rng> red_rng_;
  std::vector<rng> blue_rng_;

  [[nodiscard]] int iteration() const { return static_cast<int>(round_ / (cfg_.L + 5)); }
  [[nodiscard]] int pos_in_iteration() const { return static_cast<int>(round_ % (cfg_.L + 5)); }
  /// Red i's next round-0 success after iteration `after`.
  [[nodiscard]] round_t seek_beacon(std::size_t i, round_t after);
  /// Blue i's next ladder success after position `after`.
  [[nodiscard]] round_t seek_answer(std::size_t i, round_t after);
  void start_iteration();
  void open_ladder();
};

/// Standalone driver for tests and experiment E6: runs one full instance on
/// its own network and reports the outcome. With `fast_forward`, quiet
/// stretches are skipped via network::advance — identical results, less
/// wall-clock.
struct recruiting_run_result {
  round_t rounds = 0;
  std::int64_t transmissions = 0;
  std::size_t recruited = 0;
  std::size_t blues = 0;
  bool properties_ok = true;  ///< (b)/(c) consistency checks
};
[[nodiscard]] recruiting_run_result run_recruiting(
    const graph::graph& g, const std::vector<node_id>& reds,
    const std::vector<node_id>& blues, int L, int iterations, int exp_step,
    std::uint64_t seed, bool fast_forward = false);

}  // namespace rn::core
