// Deterministic fault injection for the distributed backend.
//
// A fault plan is a list of one-shot fault specs keyed by (rank, trial,
// round). The *coordinator* owns the plan: when it sends a round frame it
// consults `take()` and embeds the matching fault code in the frame, so the
// worker-side logic is a trivial switch and — crucially — a respawned rank
// can never re-trigger a fault that already fired (entries are consumed at
// send time, and resent rounds always carry `none`). That makes every
// recovery path exercisable on demand and exactly once.
//
// Plan grammar (the `--fault-plan` flag on rn_dist, ';'-separated):
//
//   kill:rank=1,trial=0,round=4        worker exits before walking round 4
//   drop:rank=2,trial=0,round=7        worker swallows round 7 and never
//                                      replies (a wedged rank: the
//                                      coordinator's deadline must fire)
//   truncate:rank=0,trial=1,round=2    worker sends half the result frame,
//                                      then exits (death mid-write)
//   delay:rank=1,trial=0,round=3,ms=50 worker sleeps 50 ms before replying
//                                      (past the deadline = timeout, under
//                                      it = survivable latency)
//
// Trials and rounds are 0-based; the round index counts stepped (non-empty)
// rounds within the trial, across every protocol probe the trial runs.
// Entries that never match (round past the end of the run) simply never
// fire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rn::dist {

/// Wire codes for the fault byte of a round frame. Part of the (internal)
/// wire format; append only.
enum class fault_kind : std::uint8_t {
  none = 0,
  kill = 1,      ///< _exit before walking the round
  drop = 2,      ///< walk nothing, never reply (wedged)
  truncate = 3,  ///< reply with a truncated frame, then _exit
  delay = 4,     ///< sleep arg_ms, then reply normally
};

struct fault_spec {
  fault_kind kind = fault_kind::none;
  unsigned rank = 0;
  std::uint32_t trial = 0;
  std::uint32_t round = 0;
  std::uint32_t arg_ms = 0;  ///< delay only
  bool fired = false;
};

class fault_plan {
 public:
  fault_plan() = default;

  /// Parses the ';'-separated plan grammar above; throws rn::input_error
  /// with the offending entry on malformed input. An empty string is the
  /// empty plan.
  [[nodiscard]] static fault_plan parse(const std::string& text);

  [[nodiscard]] bool empty() const { return specs_.empty(); }

  /// Returns the first unfired spec matching (rank, trial, round) and marks
  /// it fired, or nullptr. Called by the coordinator once per (rank, round)
  /// frame send — one-shot by construction.
  [[nodiscard]] const fault_spec* take(unsigned rank, std::uint32_t trial,
                                       std::uint32_t round);

 private:
  std::vector<fault_spec> specs_;
};

}  // namespace rn::dist
