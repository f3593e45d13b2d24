// Common result/measurement types for broadcast protocol runners.
//
// Protocols run for prescribed round budgets (they cannot detect global
// completion themselves); the harness *measures* completion out-of-band
// [DEV-8]. `completion_tracker` is that measurement device.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace rn::radio {

/// Outcome of one protocol execution.
struct broadcast_result {
  bool completed = false;          ///< all target nodes reached the goal state
  round_t rounds_to_complete = -1; ///< first round count at which completed
  round_t rounds_executed = 0;     ///< total simulated rounds
  std::int64_t transmissions = 0;
  std::int64_t deliveries = 0;
  std::int64_t collisions_observed = 0;
  /// Optional per-phase breakdown (e.g. Thm 1.1: wave / construction / relay).
  std::vector<std::pair<const char*, round_t>> phase_rounds;
  /// Per-node transmission counts of the dissemination network (empty if the
  /// runner does not report them). The fast-forward equivalence tests compare
  /// these vectors element-wise between execution modes. 32-bit to match the
  /// engine's per-trial-slim energy counters.
  std::vector<std::uint32_t> energy;
};

/// Tracks when every tracked node has reached its goal (e.g. "has the
/// message", "decoded all batches").
class completion_tracker {
 public:
  explicit completion_tracker(std::size_t n) : done_(n, 0), remaining_(n) {}

  /// Excludes a node from tracking (counts as already complete).
  void exclude(node_id v) { mark(v); }

  void mark(node_id v) {
    RN_REQUIRE(v < done_.size(), "node out of range");
    if (!done_[v]) {
      done_[v] = 1;
      --remaining_;
    }
  }

  [[nodiscard]] bool all_done() const { return remaining_ == 0; }
  [[nodiscard]] std::size_t remaining() const { return remaining_; }

  /// Records the round at which everything first completed.
  void observe_round(round_t rounds_so_far) {
    if (remaining_ == 0 && first_complete_ < 0) first_complete_ = rounds_so_far;
  }
  [[nodiscard]] round_t first_complete_round() const { return first_complete_; }

 private:
  std::vector<char> done_;
  std::size_t remaining_;
  round_t first_complete_ = -1;
};

}  // namespace rn::radio
