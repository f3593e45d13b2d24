// One trial frame for every protocol round.
//
// Every algorithm the library runs — the Theorem 1.1/1.3 pipelines with
// their setup phases (the layerings, the Theorem 2.1 construction and its two
// primitives, the Lemma 3.10 labeling), the known-topology GST schedule and
// the Decay baselines — runs the same synchronous radio round (paper section
// 1.1): plan a transmit list, resolve it on the channel, apply the
// receptions, and measure completion out of band [DEV-8]. `trial_frame` is
// the only code that steps a `radio::network`: it owns the network, the
// `completion_tracker` and the fast-forward deferral in front of the
// network, and builds the one `broadcast_result`. A runner brings only its
// planning loop and its receive rule.
//
// In fast-forward mode a planned-but-empty round (no transmitter scheduled)
// is deferred, and the deferred rounds are applied as one O(1)
// `network::advance` the moment a busy round, a stats read or the result
// needs the round counter to be current. In naive mode every round is
// stepped; both modes produce bit-identical results (see
// tests/test_fast_forward.cpp), which is what makes the naive path a
// cross-check oracle for the fast one. A runner with no fast-forward input
// builds its frame naive: the collision wave, whose source transmits in
// every round so that no round is idle, and the beep-wave estimate.
//
// Completion is recorded before the first round and after every stepped
// round. Only a stepped round can change it, so the recorded round is the
// same whether fast-forward defers the empty rounds or steps them. `run` is
// the broadcast runners' budgeted round loop and stops at completion. A
// phase that tracks no completion never marks the tracker.
//
// Beside the frame live the inputs every runner resolves the same way: the
// single-message informed set, the per-node coins, n̂ and d̂, and the coded
// packets of the two RLNC runners.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "coding/rlnc.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "graph/graph.h"
#include "radio/network.h"
#include "radio/result.h"

namespace rn::core {

/// The bound on n a runner plans with: `n_hat`, or n when it is 0.
[[nodiscard]] inline std::size_t resolve_n_hat(std::size_t n_hat,
                                               std::size_t n) {
  return n_hat == 0 ? n : n_hat;
}

/// The diameter bound a runner plans with: `d_hat`, or when it is 0 the
/// BFS eccentricity of `source` (an oracle standing in for a known d̂).
[[nodiscard]] level_t resolve_d_hat(const graph::graph& g, node_id source,
                                    level_t d_hat = 0);

/// One coin stream per node: node v draws from rng::for_stream(seed, v).
[[nodiscard]] std::vector<rng> node_coins(std::size_t n, std::uint64_t seed);

class trial_frame {
 public:
  trial_frame(const graph::graph& g, radio::model m, bool fast_forward);

  trial_frame(const trial_frame&) = delete;
  trial_frame& operator=(const trial_frame&) = delete;
  // Applies the deferred rounds before the network goes, so its engine
  // totals count them; results are read through stats() or finish().
  ~trial_frame() { flush(); }

  [[nodiscard]] std::size_t node_count() const { return net_.node_count(); }
  [[nodiscard]] radio::completion_tracker& tracker() { return tracker_; }

  /// Commits one planned round. In fast-forward mode an empty round is
  /// deferred (it cannot deliver anything); otherwise any deferral is
  /// applied, the round is stepped and completion is recorded. `on_rx` is
  /// statically dispatched (any callable).
  template <class OnRx>
  void commit(const radio::round_buffer& txs, OnRx&& on_rx) {
    start();
    if (ff_ && txs.empty()) {
      ++pending_;
      return;
    }
    flush();
    net_.step(txs, std::forward<OnRx>(on_rx));
    tracker_.observe_round(net_.stats().rounds);
  }

  /// Runs rounds r = 0, 1, ... < `budget` until every tracked node is
  /// complete: `plan(r)` fills the cleared `txs`, and the round is
  /// committed with `on_rx`.
  template <class OnRx, class Plan>
  void run(round_t budget, radio::round_buffer& txs, OnRx&& on_rx,
           Plan&& plan) {
    for (round_t r = 0; r < budget && !tracker_.all_done(); ++r) {
      txs.clear();
      plan(r);
      commit(txs, on_rx);
    }
  }

  /// Commits `k` rounds the caller has proven idle (no transmitter can be
  /// scheduled in them): deferred in fast-forward mode, stepped empty in
  /// naive mode — what committing k empty rounds does, in O(1) when fast.
  void advance(round_t k) {
    RN_REQUIRE(k >= 0, "cannot advance by a negative round count");
    start();
    if (ff_) {
      pending_ += k;
      return;
    }
    const radio::round_buffer none;
    for (round_t i = 0; i < k; ++i)
      net_.step(none, [](const radio::reception&) {});
  }

  /// Runs a plan/on_reception/end_round protocol instance until it
  /// finishes. In fast-forward mode each quiet window the instance proves
  /// (`quiet_rounds`/`skip_rounds`) is committed as one advance.
  template <class Instance>
  void drive(Instance& inst) {
    radio::round_buffer txs;
    while (!inst.finished()) {
      if (ff_) {
        const round_t q = inst.quiet_rounds();
        if (q > 0) {
          advance(q);
          inst.skip_rounds(q);
          continue;
        }
      }
      txs.clear();
      inst.plan(txs);
      commit(txs, [&](const radio::reception& rx) { inst.on_reception(rx); });
      inst.end_round();
    }
  }

  /// The network's statistics, with the deferred rounds applied.
  [[nodiscard]] const radio::network_stats& stats() {
    flush();
    return net_.stats();
  }

  /// Applies the deferred rounds and builds the trial's result.
  /// `setup_rounds` (spent before this frame's network ran) count toward
  /// both round fields.
  [[nodiscard]] radio::broadcast_result finish(round_t setup_rounds = 0);

 private:
  void start() {
    if (started_) return;
    started_ = true;
    tracker_.observe_round(0);  // complete before the first round
  }

  void flush() {
    if (pending_ > 0) {
      net_.advance(pending_);
      pending_ = 0;
    }
  }

  radio::network net_;
  bool ff_;
  round_t pending_ = 0;
  radio::completion_tracker tracker_;
  bool started_ = false;
};

/// The single-message informed set: which nodes hold the message. Informing
/// a node marks it complete in the frame's tracker.
class informed_set {
 public:
  explicit informed_set(trial_frame& f)
      : has_(f.node_count(), 0), tracker_(&f.tracker()) {}

  [[nodiscard]] bool operator[](node_id v) const { return has_[v] != 0; }

  /// Informs `v`; false if it already held the message.
  bool inform(node_id v) {
    if (has_[v]) return false;
    has_[v] = 1;
    tracker_->mark(v);
    return true;
  }

  /// The receive rule: a data packet heard alone informs its listener.
  /// True iff `rx` newly informed it.
  bool receive(const radio::reception& rx) {
    return rx.what == radio::observation::message &&
           rx.pkt->kind == radio::packet_kind::data && inform(rx.listener);
  }

 private:
  std::vector<char> has_;
  radio::completion_tracker* tracker_;
};

/// Fresh coded packets on recycled bodies. A body is handed out again once
/// nothing but this pool references it: no relay kept it and no round
/// buffer slot still holds it. So the pool holds about the relays' bodies
/// plus one round's transmitters, and the coded data path allocates only
/// while that number grows.
class coded_packets {
 public:
  /// A coded packet of `batch` carrying a fresh re-encoding of `node`.
  [[nodiscard]] radio::packet fresh(std::uint32_t batch,
                                    const coding::rlnc_node& node, rng& r) {
    std::shared_ptr<radio::packet_body> body = acquire();
    node.encode(r, body->coeffs, body->data);
    return radio::packet::make_coded(batch, std::move(body));
  }

 private:
  std::shared_ptr<radio::packet_body> acquire();

  std::vector<std::shared_ptr<radio::packet_body>> lent_;
  std::vector<std::shared_ptr<radio::packet_body>> free_;
};

}  // namespace rn::core
