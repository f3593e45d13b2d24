// Command-line driver shared by bench_suite and the per-experiment binaries.
//
//   bench_suite --experiment e1 --trials 64 --threads 8 --seed 1 --json out.json
//   bench_suite --experiment all --trials 4 --json bench.json
//   bench_suite --list
//
// Experiments must already be registered (bench::register_all()).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/json.h"

namespace rn::sim {

/// Amends the timing sidecar object just before it is written — the seam a
/// frontend (tools/rn_dist) uses to add execution-backend evidence, e.g.
/// bumping the schema to rn-bench-timing-v6 and attaching per-rank RSS,
/// transport and recovery counters. Results JSON is never touched: like
/// every other engine knob, the distributed backend may only show up in the
/// sidecar.
using timing_extension = std::function<void(json_value& timing)>;

/// Installs (empty clears) the process-wide sidecar amendment, applied by
/// run_suite after the v4 fields are in place.
void set_timing_extension(timing_extension fn);

struct cli_options {
  std::string experiment;    ///< id, or "all" (skips slow-labeled sweeps)
  std::size_t trials = 0;    ///< 0 = each experiment's default_trials
  unsigned threads = 0;      ///< 0 = hardware concurrency
  /// Shards per big-trial network: 0 = auto (networks above the intra-trial
  /// node threshold borrow worker capacity the trial pool is not using),
  /// 1 = serial row walks, k >= 2 = force k-thread teams. Results are
  /// byte-identical at every value.
  unsigned intra_trial_threads = 0;
  std::uint64_t seed = 1;
  std::string json_path;     ///< empty = no JSON output
  /// Wall-clock / engine-counter / peak-RSS sidecar (rn-bench-timing-v4:
  /// per-experiment peak_rss_kb is a per-run high-water mark where the
  /// kernel supports resets, with the process-lifetime maximum kept at the
  /// top level; v4 adds the host's vector ISA). Kept separate from --json
  /// so result files stay byte-identical across thread counts and
  /// execution modes; the CI perf gate trends this file.
  std::string timing_path;
  /// Disable fast-forward execution (cross-check mode: identical results,
  /// every protocol round resolved on the channel).
  bool no_fast_forward = false;
  /// Ad-hoc workload mode (no recompiling): "kind:param=value,..." topology,
  /// comma-separated protocol ids, and an optional "param=v1,v2,..." sweep
  /// that expands into one scenario per value. Exclusive with --experiment.
  std::string topology;
  std::string protocols;     ///< default "decay" when --topology is given
  std::string sweep;
  std::size_t messages = 1;  ///< workload message count for ad-hoc runs
  /// Canonical core::options string ("opt-v1:key=value,...") for ad-hoc
  /// runs; empty = the historical ad-hoc default (fast constants profile).
  std::string options;
  bool list = false;
  bool help = false;
};

/// Parses argv; returns false (with a message on stderr) on bad usage.
[[nodiscard]] bool parse_cli(int argc, char** argv, cli_options& out);

/// Full driver: parse, run, report. Returns a process exit code.
int run_suite(int argc, char** argv);

}  // namespace rn::sim
