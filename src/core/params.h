// Protocol constants [DEV-5].
//
// Every Theta(.) in the paper becomes a tunable multiplier here. `paper()`
// uses generous constants (property tests / high-probability guarantees);
// `fast()` trades slack for simulation speed so that the log^4..log^6 n terms
// do not drown laptop-scale diameters in the benches. Benches report the
// profile they use.
#pragma once

#include <cstddef>
#include <string_view>

#include "common/math.h"
#include "common/types.h"
#include "radio/block_walk.h"

namespace rn::core {

/// The lossy-channel contract, versioned so erasure-sensitive results can
/// name the draw mapping they were produced under. `channel-v1` is the PR 5
/// block-major mapping: the node-id space is partitioned into
/// `kChannelContractBlocks` contiguous listener blocks balanced by adjacency
/// volume, receptions are dispatched block by block in ascending order (and
/// within a block in the serial row walk's first-touch order), and the
/// erasure RNG draws one Bernoulli per single-transmitter reception *in that
/// dispatch order*. Changing the block count, the dispatch order, or the
/// per-reception draw discipline re-baselines every erasure_prob > 0 result
/// and therefore requires a new contract version — never a silent edit
/// (tests/test_channel_contract.cpp pins exact draw outcomes).
inline constexpr std::string_view kChannelContract = "channel-v1";
inline constexpr unsigned kChannelContractBlocks = radio::kPlanBlocks;

struct params {
  /// Phases per "Theta(log n) phases of Decay" (each phase has L+1 rounds).
  double decay_phase_mult = 2.0;
  /// Recruiting iterations as a multiple of L^2 (paper: Theta(log^2 n)).
  double recruit_iter_mult = 1.0;
  /// Iterations per probability-exponent step in recruiting round 1
  /// (paper: Theta(log n)).
  double recruit_exp_step_mult = 1.0;
  /// Epochs per rank phase (paper: Theta(log n)).
  double epoch_mult = 2.0;
  /// Round budget multiplier for GST-schedule broadcasts.
  double schedule_slack = 3.0;
  /// Extra fountain packets per FEC handoff, as a multiple of the batch size.
  double fec_overhead = 2.0;
  /// Ring width divisor target: width ~ D / ring_divisor (clamped >= 3)
  /// [DEV-6]. The paper uses log^4 n; any value that keeps per-ring GST
  /// construction O(D) preserves the asymptotics.
  double ring_divisor = 0.0;  ///< 0 = single ring (footnote 7 regime)

  [[nodiscard]] static params paper() {
    params p;
    p.decay_phase_mult = 3.0;
    p.recruit_iter_mult = 1.5;
    p.recruit_exp_step_mult = 1.5;
    p.epoch_mult = 3.0;
    p.schedule_slack = 4.0;
    p.fec_overhead = 3.0;
    return p;
  }

  [[nodiscard]] static params fast() {
    params p;
    p.decay_phase_mult = 1.0;
    p.recruit_iter_mult = 1.0;
    p.recruit_exp_step_mult = 1.0;
    p.epoch_mult = 2.0;
    p.schedule_slack = 2.0;
    p.fec_overhead = 2.0;
    return p;
  }

  // --- Derived counts (L = ceil(log2 n_hat), never 0). ---

  [[nodiscard]] int decay_phases(std::size_t n_hat) const {
    return at_least_one(decay_phase_mult * log_range(n_hat));
  }
  [[nodiscard]] int recruit_iterations(std::size_t n_hat) const {
    const int l = log_range(n_hat);
    return at_least_one(recruit_iter_mult * l * l);
  }
  [[nodiscard]] int recruit_exp_step(std::size_t n_hat) const {
    return at_least_one(recruit_exp_step_mult * log_range(n_hat));
  }
  [[nodiscard]] int epochs(std::size_t n_hat) const {
    return at_least_one(epoch_mult * log_range(n_hat));
  }

  friend bool operator==(const params&, const params&) = default;

 private:
  [[nodiscard]] static int at_least_one(double v) {
    const int i = static_cast<int>(v + 0.999999);
    return i < 1 ? 1 : i;
  }
};

}  // namespace rn::core
