#include "sim/cli.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "core/api.h"
#include "graph/topology.h"
#include "sim/adhoc.h"
#include "sim/engine.h"
#include "sim/experiment.h"

namespace rn::sim {

namespace {

void print_usage(std::ostream& os, const char* prog) {
  os << "usage: " << prog
     << " [--experiment ID|all] [--trials N] [--threads N] [--seed S]\n"
     << "       [--topology SPEC [--protocol IDS] [--sweep PARAM=V1,V2,..]"
        " [--messages K]]\n"
     << "       [--json PATH] [--list] [--help]\n\n"
     << "  --experiment, -e  experiment id (see --list), or 'all' (slow\n"
     << "                    scale sweeps are skipped; run them by id)\n"
     << "  --trials,     -t  Monte Carlo trials per scenario (default: per"
        " experiment)\n"
     << "  --threads,    -j  worker threads (default: hardware concurrency);\n"
     << "                    results are identical at every thread count\n"
     << "  --intra-trial-threads  shards per big-trial network: 0 = auto\n"
     << "                    (above a node-count threshold, borrow pool\n"
     << "                    capacity), 1 = serial, k = force k-thread teams;\n"
     << "                    results are identical at every value\n"
     << "  --seed,       -s  run seed (default 1)\n"
     << "  --topology        ad-hoc workload: topology spec"
        " kind:param=value,...\n"
     << "                    (e.g. layered:depth=12,width=8 — see --list)\n"
     << "  --protocol        comma-separated protocol ids for the ad-hoc\n"
     << "                    workload (default: decay)\n"
     << "  --sweep           PARAM=V1,V2,...: one scenario per value,\n"
     << "                    overriding PARAM of the --topology spec\n"
     << "  --messages        ad-hoc workload message count (default 1)\n"
     << "  --options         canonical run options opt-v1:key=value,... for\n"
     << "                    the ad-hoc workload (default: fast profile);\n"
     << "                    captures every determinism-relevant input\n"
     << "  --json            also write machine-readable results to PATH\n"
     << "  --timing          write a wall-clock/engine sidecar JSON to PATH\n"
     << "                    (results are mode- and thread-independent; only\n"
     << "                    this sidecar carries timing)\n"
     << "  --no-fast-forward cross-check mode: step every protocol round\n"
     << "                    instead of skipping idle ones (same results,\n"
     << "                    more wall-clock)\n"
     << "  --list            list experiments, topology kinds and protocols\n";
}

/// The shared ad-hoc builder's spec for --topology/--protocol/--sweep (the
/// broadcast service assembles the same struct from request JSON).
adhoc_spec to_adhoc_spec(const cli_options& opt) {
  adhoc_spec spec;
  spec.topology = opt.topology;
  spec.protocols = opt.protocols;
  spec.sweep = opt.sweep;
  spec.messages = opt.messages;
  spec.options = opt.options;
  return spec;
}

timing_extension g_timing_extension;

}  // namespace

void set_timing_extension(timing_extension fn) {
  g_timing_extension = std::move(fn);
}

bool parse_cli(int argc, char** argv, cli_options& out) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](std::string_view flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    auto number = [&](auto& field) {
      const char* v = value(arg);
      return v != nullptr && parse_flag(arg, v, field);
    };
    if (arg == "--help" || arg == "-h") {
      out.help = true;
    } else if (arg == "--list") {
      out.list = true;
    } else if (arg == "--experiment" || arg == "-e") {
      const char* v = value(arg);
      if (v == nullptr) return false;
      out.experiment = v;
    } else if (arg == "--json") {
      const char* v = value(arg);
      if (v == nullptr) return false;
      out.json_path = v;
    } else if (arg == "--timing") {
      const char* v = value(arg);
      if (v == nullptr) return false;
      out.timing_path = v;
    } else if (arg == "--topology") {
      const char* v = value(arg);
      if (v == nullptr) return false;
      out.topology = v;
    } else if (arg == "--protocol") {
      const char* v = value(arg);
      if (v == nullptr) return false;
      out.protocols = v;
    } else if (arg == "--sweep") {
      const char* v = value(arg);
      if (v == nullptr) return false;
      out.sweep = v;
    } else if (arg == "--options") {
      const char* v = value(arg);
      if (v == nullptr) return false;
      out.options = v;
    } else if (arg == "--no-fast-forward") {
      out.no_fast_forward = true;
    } else if (arg == "--trials" || arg == "-t") {
      if (!number(out.trials)) return false;
      if (out.trials == 0) {
        std::cerr << "--trials must be >= 1\n";
        return false;
      }
    } else if (arg == "--threads" || arg == "-j") {
      if (!number(out.threads)) return false;
    } else if (arg == "--intra-trial-threads") {
      if (!number(out.intra_trial_threads)) return false;
    } else if (arg == "--messages") {
      if (!number(out.messages)) return false;
      if (out.messages == 0) {
        std::cerr << "--messages must be >= 1\n";
        return false;
      }
    } else if (arg == "--seed" || arg == "-s") {
      if (!number(out.seed)) return false;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return true;
}

int run_suite(int argc, char** argv) {
  cli_options opt;
  if (!parse_cli(argc, argv, opt)) {
    print_usage(std::cerr, argv[0]);
    return 2;
  }
  if (opt.help) {
    print_usage(std::cout, argv[0]);
    return 0;
  }

  const registry& reg = registry::instance();
  if (opt.list) {
    std::cout << "experiments:\n";
    for (const auto& id : reg.ids()) {
      const experiment* e = reg.find(id);
      std::cout << "  " << id << "  " << e->title
                << (e->slow ? "  [slow: excluded from 'all']" : "") << "\n";
    }
    std::cout << "\ntopology kinds (--topology kind:param=value,...):\n";
    for (const auto& kind : graph::topology_registry::instance().kinds()) {
      const auto* t = graph::topology_registry::instance().find(kind);
      std::cout << "  " << kind << "  (" << t->params_help << ")\n";
    }
    std::cout << "\nprotocols (--protocol id[,id...]):\n";
    for (const auto& id : core::protocol_registry::instance().ids()) {
      const auto* p = core::protocol_registry::instance().find(id);
      std::string col = "  " + id + (p->multi_message ? " [multi]" : "");
      col.resize(std::max<std::size_t>(col.size(), 26), ' ');
      std::cout << col << p->summary << "\n";
    }
    return 0;
  }

  if (opt.topology.empty() &&
      (!opt.protocols.empty() || !opt.sweep.empty() || opt.messages != 1 ||
       !opt.options.empty())) {
    std::cerr << "--protocol/--sweep/--messages/--options define an ad-hoc"
                 " workload and require --topology\n";
    return 2;
  }

  experiment adhoc;
  std::vector<const experiment*> selected;
  if (!opt.topology.empty()) {
    if (!opt.experiment.empty()) {
      std::cerr << "--topology defines an ad-hoc workload; drop"
                   " --experiment\n";
      return 2;
    }
    try {
      adhoc = make_adhoc_experiment(to_adhoc_spec(opt));
    } catch (const std::exception& ex) {
      std::cerr << ex.what() << "\n";
      return 2;
    }
    selected.push_back(&adhoc);
  } else if (opt.experiment == "all") {
    for (const auto& id : reg.ids()) {
      const experiment* e = reg.find(id);
      if (e->slow) {
        std::cerr << "skipping " << id << " (slow; run with -e " << id
                  << ")\n";
        continue;
      }
      selected.push_back(e);
    }
  } else if (!opt.experiment.empty()) {
    const experiment* e = reg.find(opt.experiment);
    if (e == nullptr) {
      std::cerr << "unknown experiment: " << opt.experiment
                << " (try --list)\n";
      return 2;
    }
    selected.push_back(e);
  } else {
    std::cerr << "no experiment selected\n";
    print_usage(std::cerr, argv[0]);
    return 2;
  }

  set_fast_forward(!opt.no_fast_forward);
  // Worker capacity is shared between the scenario pool and intra-trial
  // shard teams; --intra-trial-threads picks how big trials use it (auto by
  // default — byte-identical results at every value, so purely a perf knob).
  radio::set_worker_budget(opt.threads);
  set_intra_trial_threads(opt.intra_trial_threads);

  json_value all = json_value::array();
  json_value timing_rows = json_value::array();
  double total_wall_ms = 0.0;
  // Per-run RSS peaks need kernel support for high-water-mark resets; when
  // absent the per-experiment field falls back to the monotone process peak
  // (the pre-v3 behavior) and the sidecar says so.
  bool rss_resets = true;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const experiment* e = selected[i];
    run_config cfg;
    cfg.trials = opt.trials != 0 ? opt.trials : e->default_trials;
    cfg.threads = opt.threads;
    cfg.seed = opt.seed;
    if (!opt.timing_path.empty()) rss_resets = reset_peak_rss() && rss_resets;
    const engine_snapshot before = engine_counters();
    const shard_snapshot shards_before = shard_counters();
    const auto t0 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) wall_ms measurement for the timing sidecar, never results JSON
    experiment_result result;
    try {
      result = run_experiment(*e, cfg);
    } catch (const std::exception& ex) {
      // Trial-time contract violations (e.g. a gnp/unit_disk draw that
      // never connects for the trial's seed) surface as a clean error, not
      // std::terminate.
      std::cerr << ex.what() << "\n";
      return 2;
    }
    const auto t1 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) wall_ms measurement for the timing sidecar, never results JSON
    const engine_snapshot after = engine_counters();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    total_wall_ms += wall_ms;
    if (i > 0) std::cout << "\n";
    print_report(std::cout, *e, result);
    if (!opt.json_path.empty()) all.push_back(to_json(*e, result));
    if (!opt.timing_path.empty()) {
      json_value row = json_value::object();
      row["id"] = e->id;
      row["wall_ms"] = wall_ms;
      row["scenarios"] = result.scenarios.size();
      // Scenario-level parallelism evidence: the flattened queue offers
      // scenarios x trials units to resolve_threads, not trials.
      row["work_units"] = result.scenarios.size() * cfg.trials;
      row["workers"] = static_cast<std::uint64_t>(
          resolve_threads(cfg.threads, result.scenarios.size() * cfg.trials));
      row["stepped_rounds"] = after.stepped_rounds - before.stepped_rounds;
      row["skipped_rounds"] = after.skipped_rounds - before.skipped_rounds;
      // Intra-trial backend evidence: rounds whose row walks were sharded
      // and the per-team-slot busy time they consumed (slot 0 = the
      // stepping thread). Deltas, so each experiment reports its own work.
      const shard_snapshot shards_after = shard_counters();
      row["parallel_rounds"] =
          shards_after.parallel_rounds - shards_before.parallel_rounds;
      json_value shard_ms = json_value::array();
      for (std::size_t s = 0; s < shards_after.busy_ns.size(); ++s) {
        const std::int64_t prev = s < shards_before.busy_ns.size()
                                      ? shards_before.busy_ns[s]
                                      : 0;
        shard_ms.push_back((shards_after.busy_ns[s] - prev) / 1e6);
      }
      row["shard_busy_ms"] = std::move(shard_ms);
      // This experiment's own peak (high-water mark since the reset above);
      // falls back to the monotone process maximum where resets are
      // unsupported — see "rss_resets" at the top level.
      row["peak_rss_kb"] = peak_rss_kb();
      timing_rows.push_back(std::move(row));
    }
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "cannot write " << opt.json_path << "\n";
      return 1;
    }
    all.dump(out, 2);  // always an array, even for one experiment
    out << "\n";
  }
  if (!opt.timing_path.empty()) {
    json_value timing = json_value::object();
    // v3: per-experiment peak_rss_kb became a per-run high-water mark (reset
    // between experiments); the top-level field stays the monotone process
    // maximum, and rss_resets records whether the kernel honored the resets.
    // v4: adds "simd", the host's vector ISA, which bench/perf/run.py's
    // host fingerprint reads. The walk itself is scalar on every host.
    timing["schema"] = "rn-bench-timing-v4";
    timing["simd"] = radio::to_string(radio::active_simd_level());
    timing["fast_forward"] = !opt.no_fast_forward;
    timing["seed"] = opt.seed;
    // 0 = hardware concurrency
    timing["threads"] = static_cast<std::uint64_t>(opt.threads);
    // 0 = auto (node-count threshold + borrowed pool capacity)
    timing["intra_trial_threads"] =
        static_cast<std::uint64_t>(opt.intra_trial_threads);
    timing["rss_resets"] = rss_resets;
    timing["experiments"] = std::move(timing_rows);
    timing["total_wall_ms"] = total_wall_ms;
    timing["peak_rss_kb"] = process_peak_rss_kb();
    // v6 (distributed runs only): the installed extension re-stamps the
    // schema and adds rank and recovery counters — see tools/rn_dist.
    if (g_timing_extension) g_timing_extension(timing);
    std::ofstream out(opt.timing_path);
    if (!out) {
      std::cerr << "cannot write " << opt.timing_path << "\n";
      return 1;
    }
    timing.dump(out, 2);
    out << "\n";
  }
  return 0;
}

}  // namespace rn::sim
