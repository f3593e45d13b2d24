// The paper's transmission schedules atop a GST (section 3.2).
//
// Round parity splits the schedule:
//  * even rounds — *fast* transmissions pipeline packets down fast stretches:
//    a stretch member u at level l with rank r transmits when
//    t == 2(l + 3r) (mod 6L). Only nodes with a same-rank child transmit
//    [DEV-3], which together with GST collision-freeness makes fast rounds
//    provably collision-free (Lemma 3.5).
//  * odd rounds — *slow* Decay-style transmissions keyed to the node's
//    virtual distance d in G' (fast edges + graph edges): prompted when
//    t == 1 + 2d (mod 6), with probability 2^-((t-1-2d)/6 mod L).
//
// The `classic_levels` variant keys slow transmissions to BFS levels instead
// of virtual distances — the [7]/[19]-style schedule the paper argues is not
// MMV; we keep it as an ablation (experiment E5).
//
// Every runner on this schedule (`gst-known`, the `gst-unknown-cd` ring
// relay and both RLNC runners) plans its rounds through
// `gst_schedule_index::plan`, which draws every slow coin, and sizes its
// round budget with `relay_budget`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/gst.h"

namespace rn::core {

class gst_schedule {
 public:
  /// `slow_by_virtual_distance == false` selects the classic level-keyed
  /// ablation variant.
  gst_schedule(const gst& t, const gst_derived& d, std::size_t n_hat,
               bool slow_by_virtual_distance = true);

  enum class action : std::uint8_t {
    none,         ///< listen
    fast,         ///< deterministic fast-stretch transmission
    slow_prompt,  ///< prompted to transmit (coin already flipped)
  };

  /// Decision for node v in round t; consumes randomness from r for the slow
  /// coin. Non-members are never prompted.
  [[nodiscard]] action query(node_id v, round_t t, rng& r) const;

  /// One full fast-wave period (a stretch head emits once per period).
  [[nodiscard]] round_t fast_period() const { return 6 * L_; }

  [[nodiscard]] int log_n() const { return L_; }

  [[nodiscard]] std::size_t node_count() const { return t_->node_count(); }

  /// The (even) slot within fast_period() at which v fast-transmits, or -1
  /// if v can never fast-transmit (non-member, unranked, or no same-rank
  /// child [DEV-3]). Mirrors query()'s even-round condition.
  [[nodiscard]] round_t fast_slot(node_id v) const;

  /// The key of v's slow schedule (virtual distance, or level in the classic
  /// ablation), or no_level if v is never slow-prompted. Mirrors query()'s
  /// odd-round condition: v's slow coin is consulted only in odd rounds t
  /// with key ≡ (t-1)/2 (mod 3).
  [[nodiscard]] level_t slow_key(node_id v) const;

  /// How many draws query() takes from v's rng over rounds [0, t]: one per
  /// slow slot reached, except the slots with exponent 0, which flip no
  /// coin. With slots = (t - start) / 6 + 1 that is slots - ceil(slots / L).
  [[nodiscard]] std::int64_t slow_draws_through(node_id v, round_t t) const;

  /// Discards the slow_draws_through(v, t) coins the full scan would have
  /// drawn from coins[v] through round t: a member that gst_schedule_index::
  /// plan let skip its draws until t runs this before it draws again, so
  /// its stream is where the full scan would have left it.
  void catch_up(node_id v, round_t t, std::span<rng> coins) const;

 private:
  const gst* t_;
  const gst_derived* d_;
  int L_;
  bool slow_by_vd_;
};

/// The round budget of a relay on the schedule, O(D + log n (log n +
/// log 1/delta)) with delta = 1/poly(n): slack * (6 depth + 48 L^2 + extra
/// + 64) interleaved fast/slow rounds, `extra` being a runner's own
/// additive term.
[[nodiscard]] round_t relay_budget(level_t depth, int L, double slack,
                                   double extra = 0);

/// Round-indexed buckets over a fixed member set: for any round, the exact
/// subset of members whose schedule (and randomness) query() would consult.
/// This is what lets runners compute the next round with any scheduled
/// transmitter instead of scanning every member every round. Iterating a
/// bucket is observably identical to the naive full scan (same
/// transmissions, same coins in the same order), because query() returns
/// without touching the rng for every node the iteration leaves out.
class gst_schedule_index {
 public:
  /// `members` fixes the iteration order within each bucket (runners pass
  /// the same order their naive scan used).
  gst_schedule_index(const gst_schedule& s, std::span<const node_id> members);
  /// Every node of the schedule's forest, in id order.
  explicit gst_schedule_index(const gst_schedule& s);

  /// Even (fast) round r's transmitters: exactly the members for which
  /// query(v, r, rng) returns fast, in member order. No coin is drawn.
  [[nodiscard]] const std::vector<node_id>& fast_bucket(round_t r) const {
    return fast_[static_cast<std::size_t>((r % period_) / 2)];
  }

  /// Plans round r: calls emit(v, a) for every member that transmits in it
  /// as the full scan over query() decides, in member order. An even round
  /// emits its fast bucket (a == action::fast, no coin drawn). In an odd
  /// round every member whose slow coin the round consults draws it from
  /// coins[v] and emits action::slow_prompt when it comes up, unless
  /// draws(v) is false: then v draws nothing, and it owes
  /// gst_schedule::catch_up before it draws again. emit runs right after
  /// v's coin, so it may draw more from coins[v].
  template <class Draws, class Emit>
  void plan(round_t r, std::span<rng> coins, Draws&& draws, Emit&& emit) {
    if (r % 2 == 0) {
      for (const node_id v : fast_bucket(r))
        emit(v, gst_schedule::action::fast);
      return;
    }
    for_each_slow(r, [&](node_id v, int e) {
      if (draws(v) && coins[v].with_probability_pow2(e))
        emit(v, gst_schedule::action::slow_prompt);
    });
  }

  /// plan() in which every member draws its coin.
  template <class Emit>
  void plan(round_t r, std::span<rng> coins, Emit&& emit) {
    plan(r, coins, [](node_id) { return true; }, std::forward<Emit>(emit));
  }

  /// Calls fn(v, e) for every member whose slow coin odd round r consults,
  /// in member order: exactly the members for which query(v, r, rng) flips
  /// rng.with_probability_pow2(e). A member of the round's bucket (slow key
  /// k = 3j + ((r-1)/2 mod 3)) is at slot Q - j of its schedule, with
  /// Q = (r-1)/6, so it has reached r iff j <= Q and its exponent is
  /// (Q - j) mod L. That exponent is read from a table over j filled once
  /// per call, so the scan itself does no division.
  template <class Fn>
  void for_each_slow(round_t r, Fn&& fn) {
    const slow_bucket& b = slow_[static_cast<std::size_t>(((r - 1) / 2) % 3)];
    const round_t q = (r - 1) / 6;
    const std::uint32_t reached =
        q < b.max_j ? static_cast<std::uint32_t>(q) + 1 : b.max_j + 1;
    int e = static_cast<int>(q % L_);
    for (std::uint32_t j = 0; j < reached; ++j) {
      exponent_[j] = static_cast<std::uint8_t>(e);
      e = e == 0 ? L_ - 1 : e - 1;
    }
    std::fill(exponent_.begin() + reached, exponent_.begin() + b.max_j + 1,
              unreached);
    for (const slow_member& m : b.members) {
      const std::uint8_t x = exponent_[m.j];
      if (x != unreached) fn(m.v, static_cast<int>(x));
    }
  }

 private:
  struct slow_member {
    node_id v;
    std::uint32_t j;  ///< slow key / 3
  };
  struct slow_bucket {
    std::vector<slow_member> members;
    std::uint32_t max_j = 0;
  };
  static constexpr std::uint8_t unreached = 0xff;

  round_t period_;
  int L_;
  std::vector<std::vector<node_id>> fast_;  ///< indexed by slot / 2
  std::vector<slow_bucket> slow_;           ///< indexed by key mod 3
  std::vector<std::uint8_t> exponent_;      ///< per-call table over j
};

}  // namespace rn::core
