// Fast-forward-aware protocol-runner utilities.
//
// `round_sink` sits between a protocol runner's per-round planning loop and
// the radio network. In fast-forward mode it coalesces planned-but-empty
// rounds (no transmitter scheduled) into a single deferred batch that is
// flushed as one O(1) `network::advance` call the moment a busy round — or a
// stats read — needs the round counter to be current. In naive mode every
// round is stepped individually; both modes produce bit-identical protocol
// results (see tests/test_fast_forward.cpp), which is what makes the naive
// path a cross-check oracle for the fast one. Every broadcast runner reaches
// its sink through `core::trial_frame` (core/trial_frame.h).
//
// `drive` is the one round loop of the construction: plan, step, deliver and
// end each round, skipping the instance's quiet windows in fast-forward
// mode. It runs the standalone primitives (`recruiting_instance`,
// `assignment_problem`) and each slot of the distributed GST construction.
#pragma once

#include <vector>

#include "common/check.h"
#include "radio/network.h"

namespace rn::core {

class round_sink {
 public:
  round_sink(radio::network& net, bool fast_forward)
      : net_(&net), ff_(fast_forward) {}

  round_sink(const round_sink&) = delete;
  round_sink& operator=(const round_sink&) = delete;
  // Deferred rounds are applied at destruction as a backstop, but callers
  // must still flush() before reading network statistics — a dtor flush
  // lands after any stats read in the enclosing scope.
  ~round_sink() { flush(); }

  [[nodiscard]] bool fast_forward() const { return ff_; }

  /// Commits one planned round. In fast-forward mode an empty round is
  /// deferred (it cannot deliver anything); otherwise any deferral is flushed
  /// and the round is stepped. `force` steps even an empty round — used when
  /// the caller inspects state that naive stepping would only reach after
  /// executing the round (e.g. a stop-when-complete check). Returns true iff
  /// the round was stepped. `on_rx` is statically dispatched (any callable).
  template <class OnRx>
  bool commit(const radio::round_buffer& txs, OnRx&& on_rx,
              bool force = false) {
    if (ff_ && !force && txs.empty()) {
      ++pending_;
      return false;
    }
    flush();
    net_->step(txs, std::forward<OnRx>(on_rx));
    return true;
  }

  /// Commits `k` rounds the caller has proven idle (no transmitter can be
  /// scheduled in them): deferred in fast-forward mode, stepped empty in
  /// naive mode — what committing k empty rounds does, in O(1) when fast.
  void advance(round_t k) {
    RN_REQUIRE(k >= 0, "cannot advance by a negative round count");
    if (ff_) {
      pending_ += k;
      return;
    }
    const radio::round_buffer none;
    for (round_t i = 0; i < k; ++i)
      net_->step(none, [](const radio::reception&) {});
  }

  /// Applies all deferred rounds. Call before reading network statistics.
  void flush() {
    if (pending_ > 0) {
      net_->advance(pending_);
      pending_ = 0;
    }
  }

 private:
  radio::network* net_;
  bool ff_;
  round_t pending_ = 0;
};

/// Runs a plan/on_reception/end_round protocol instance on `net` until it
/// finishes. With `fast_forward`, each quiet window the instance proves
/// (`quiet_rounds`/`skip_rounds`) is skipped through network::advance.
template <class Instance>
void drive(radio::network& net, Instance& inst, bool fast_forward) {
  radio::round_buffer txs;
  while (!inst.finished()) {
    if (fast_forward) {
      const round_t q = inst.quiet_rounds();
      if (q > 0) {
        net.advance(q);
        inst.skip_rounds(q);
        continue;
      }
    }
    txs.clear();
    inst.plan(txs);
    net.step(txs, [&](const radio::reception& rx) { inst.on_reception(rx); });
    inst.end_round();
  }
}

}  // namespace rn::core
