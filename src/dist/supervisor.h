// Supervision policy for the distributed backend.
//
// The session (dist/session.cpp) detects rank failures — a crashed worker
// turns channel reads into EOF, a wedged one into a deadline timeout — and
// drives recovery through this policy:
//
//   1. *Respawn*: fork (or fork+exec) a fresh process for the rank, with
//      bounded exponential backoff between attempts, re-ship its rows from
//      the coordinator's graph (the setup frames), then resend the round
//      in flight — workers keep no state between rounds, so setup is the
//      whole resync. Each rank gets `max_respawns` attempts per trial.
//   2. *Degrade*: when respawn is exhausted the rank is retired for the rest
//      of the session; its block range is covered locally for the in-flight
//      round (the coordinator holds the trial graph) and reassigned to the
//      surviving ranks at the next round boundary. Because blocks are
//      applied in canonical ascending order regardless of which process
//      computes them, results JSON stays byte-identical to the fault-free
//      run through every path.
//
// The session counts its recoveries in session_totals (dist/session.h),
// which rn_dist's v6 timing sidecar reports.
#pragma once

namespace rn::dist {

/// Detection deadlines and the respawn/backoff policy. All knobs surface on
/// rn_dist (--round-deadline-ms etc.); tests shrink them to keep the fault
/// matrix fast.
struct supervise_policy {
  /// recv deadline for a round-results frame (also every round frame sent),
  /// the first round's included. A rank that exceeds it is treated as
  /// wedged: killed, then respawned. 0 disables detection (block forever).
  unsigned round_deadline_ms = 60'000;
  /// Deadline for every setup frame sent, the teardown ack and each rank's
  /// setup_ready, which the coordinator reads before the rank's first round
  /// frame, after a resync, before its next setup, or at trial_end when no
  /// round ran — view fills scale with n, so this phase gets a larger
  /// budget, and a fill still running when the first round is due is never
  /// taken for a wedge.
  unsigned setup_deadline_ms = 300'000;
  /// Respawn attempts per rank per trial before degrading to reassignment.
  unsigned max_respawns = 2;
  /// Exponential backoff before attempt k sleeps min(base << k, cap).
  unsigned backoff_base_ms = 100;
  unsigned backoff_cap_ms = 5'000;
};

/// Backoff before 0-based respawn attempt `attempt`: min(base << attempt,
/// cap). Pure — tests pin it directly.
[[nodiscard]] unsigned backoff_delay_ms(const supervise_policy& policy,
                                        unsigned attempt);

}  // namespace rn::dist
