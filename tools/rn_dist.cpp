// Multi-process launcher: bench_suite semantics on a rank fleet.
//
//   rn_dist --ranks 4 --experiment e1 --trials 8 --json out.json --timing t.json
//   rn_dist --ranks 4 --intra-trial-threads 2 --topology layered:depth=50,width=200 ...
//
// Every flag after --ranks is the bench_suite CLI. The process forks R
// worker ranks (re-exec'ing this binary with the hidden --rn-worker-fd
// flag), installs the dist session as the trial observer, and runs the
// ordinary suite driver: declarative trials execute on the fleet, each rank
// walking only the rows of its listener blocks. Results JSON is
// byte-identical to bench_suite at any --ranks / --intra-trial-threads; the
// timing sidecar is rn-bench-timing-v6 with per-rank peak RSS, transport
// byte counts, coordinator merge time, and the recovery counters.
//
// Supervision flags (dist/supervisor.h; values in milliseconds / attempts):
//
//   --round-deadline-ms N   recv deadline per round frame (default 60000;
//                           0 = block forever, disables wedge detection)
//   --setup-deadline-ms N   recv deadline for setup_ack, setup_ready and
//                           teardown_ack (300000); a rank's first round
//                           waits for its setup_ready under it, so a long
//                           fill is never taken for a wedge
//   --max-respawns N        respawn attempts per rank per trial before the
//                           rank degrades to block reassignment (2)
//   --backoff-ms N          base of the exponential respawn backoff (100)
//   --fault-plan PLAN       deterministic fault injection, e.g.
//                           "kill:rank=1,trial=0,round=4;drop:rank=0,..."
//                           (grammar in dist/fault.h)
//
// A bad numeric value or fault plan exits 2 with "bad value for FLAG". A
// crashed or wedged rank is respawned (bounded backoff) with its adjacency
// rebuilt and the trial replayed; past the budget its blocks are reassigned
// to the survivors. Results stay byte-identical through every path.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "dist/session.h"
#include "dist/worker.h"
#include "experiments/experiments.h"
#include "sim/cli.h"
#include "sim/engine.h"

namespace {

/// Extracts "--flag N" from args (erasing it) into out, which keeps its
/// value when the flag is absent; exits 2 on a bad N.
void take_value_flag(std::vector<char*>& args, const std::string& flag,
                     unsigned& out) {
  for (std::size_t i = 1; i + 1 < args.size(); ++i) {
    if (flag != args[i]) continue;
    if (!rn::sim::parse_flag(flag, args[i + 1], out)) std::exit(2);
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    return;
  }
}

/// Extracts "--flag TEXT" from args (erasing it); returns fallback when
/// absent.
bool take_string_flag(std::vector<char*>& args, const std::string& flag,
                      std::string& out) {
  for (std::size_t i = 1; i + 1 < args.size(); ++i) {
    if (flag != args[i]) continue;
    out = args[i + 1];
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    return true;
  }
  return false;
}

/// Peeks (without erasing — run_suite consumes it too) at a numeric flag;
/// exits 2 on a bad value.
unsigned peek_value_flag(const std::vector<char*>& args,
                         const std::string& flag, unsigned fallback) {
  for (std::size_t i = 1; i + 1 < args.size(); ++i) {
    if (flag != args[i]) continue;
    if (!rn::sim::parse_flag(flag, args[i + 1], fallback)) std::exit(2);
    break;
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden worker entry: the coordinator re-execs this binary per rank.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string("--rn-worker-fd") == argv[i]) {
      int fd = -1;
      if (!rn::sim::parse_flag(argv[i], argv[i + 1], fd)) return 2;
      return rn::dist::worker_main(fd);
    }
  }

  std::vector<char*> args(argv, argv + argc);
  unsigned ranks = 4;
  take_value_flag(args, "--ranks", ranks);

  rn::bench::register_all();

  rn::dist::session_options opt;
  opt.ranks = ranks;
  take_value_flag(args, "--round-deadline-ms", opt.policy.round_deadline_ms);
  take_value_flag(args, "--setup-deadline-ms", opt.policy.setup_deadline_ms);
  take_value_flag(args, "--max-respawns", opt.policy.max_respawns);
  take_value_flag(args, "--backoff-ms", opt.policy.backoff_base_ms);
  take_string_flag(args, "--fault-plan", opt.fault_plan);
  try {
    static_cast<void>(rn::dist::fault_plan::parse(opt.fault_plan));
  } catch (const rn::contract_error& e) {
    std::cerr << "bad value for --fault-plan: " << e.what() << "\n";
    return 2;
  }
  // In distributed mode the intra-trial knob applies worker-side (the
  // coordinator's networks delegate their walks); run_suite still parses
  // the flag for the local fallback paths.
  opt.intra_trial_threads =
      std::max(1u, peek_value_flag(args, "--intra-trial-threads", 1));
  // Re-exec through /proc/self/exe so the fleet runs this exact binary
  // regardless of how it was invoked.
  opt.worker_exec = "/proc/self/exe";

  rn::dist::session session(opt);
  session.install();
  rn::sim::set_timing_extension([&session](rn::sim::json_value& timing) {
    timing["schema"] = "rn-bench-timing-v6";
    timing["ranks"] = static_cast<std::uint64_t>(session.ranks());
    const rn::dist::session_totals t = session.totals();
    rn::sim::json_value per_rank = rn::sim::json_value::array();
    std::int64_t peak = rn::sim::process_peak_rss_kb();  // coordinator
    for (const std::int64_t kb : t.peak_rss_kb_per_rank) {
      per_rank.push_back(kb);
      peak = std::max(peak, kb);
    }
    timing["peak_rss_kb_per_rank"] = std::move(per_rank);
    // Cross-process fix: the top-level peak is the max over the coordinator
    // and every rank, not the coordinator alone.
    timing["peak_rss_kb"] = peak;
    timing["dist_bytes_sent"] = t.bytes_sent;
    timing["dist_bytes_received"] = t.bytes_received;
    timing["dist_merge_wall_ms"] = t.merge_wall_ms;
    timing["dist_trials"] = t.trials;
    // v6: recovery observability — zero across the board on a healthy run.
    timing["dist_rounds"] = t.rounds;
    timing["dist_rank_restarts"] = t.rank_restarts;
    timing["dist_reassigned_blocks"] = t.reassigned_blocks;
    timing["dist_degraded_ranks"] = t.degraded_ranks;
    timing["dist_recovery_wall_ms"] = t.recovery_wall_ms;
  });

  const int rc = rn::sim::run_suite(static_cast<int>(args.size()),
                                    args.data());
  rn::sim::set_timing_extension({});
  session.uninstall();
  return rc;
}
