#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/api.h"
#include "core/params.h"
#include "graph/topology.h"
#include "out_of_range_specs.h"
#include "radio/block_walk.h"
#include "radio/network.h"
#include "sim/adhoc.h"
#include "sim/cli.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/json.h"
#include "sim/metrics.h"
#include "sim/runner.h"

namespace rn::sim {
namespace {

// A deterministic but rng-dependent trial: every draw must come from the
// trial's private stream for the thread-invariance tests to mean anything.
metrics noisy_trial(std::size_t trial, rng& r) {
  metrics m;
  m.set("value", static_cast<double>(r.uniform(1000)));
  m.set("trial", static_cast<double>(trial));
  m.set("u01", r.uniform01());
  return m;
}

TEST(Runner, ResolveThreads) {
  EXPECT_EQ(resolve_threads(4, 100), 4u);
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_GE(resolve_threads(0, 100), 1u);
  EXPECT_EQ(resolve_threads(1, 0), 1u);
}

TEST(Runner, RunsEveryTrialExactlyOnce) {
  run_config cfg;
  cfg.trials = 37;
  cfg.threads = 4;
  std::atomic<int> calls{0};
  const auto res = run_trials(cfg, [&calls](std::size_t trial, rng&) {
    calls.fetch_add(1);
    metrics m;
    m.set("trial", static_cast<double>(trial));
    return m;
  });
  EXPECT_EQ(calls.load(), 37);
  ASSERT_EQ(res.per_trial.size(), 37u);
  for (std::size_t t = 0; t < res.per_trial.size(); ++t)
    EXPECT_DOUBLE_EQ(res.per_trial[t].get("trial"), static_cast<double>(t));
}

TEST(Runner, ByteIdenticalAcrossThreadCounts) {
  // The acceptance contract: same (seed, trials) => identical per-trial
  // metrics and identical aggregates at 1, 2 and 8 threads.
  run_config cfg;
  cfg.trials = 64;
  cfg.seed = 12345;

  std::vector<trial_results> runs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    runs.push_back(run_trials(cfg, noisy_trial));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].per_trial.size(), runs[0].per_trial.size());
    for (std::size_t t = 0; t < runs[0].per_trial.size(); ++t) {
      const auto& a = runs[0].per_trial[t].items();
      const auto& b = runs[i].per_trial[t].items();
      ASSERT_EQ(a, b) << "trial " << t << " differs at threads run " << i;
    }
  }
}

TEST(Runner, SeedChangesResults) {
  run_config a;
  a.trials = 8;
  a.threads = 1;
  a.seed = 1;
  run_config b = a;
  b.seed = 2;
  const auto ra = run_trials(a, noisy_trial);
  const auto rb = run_trials(b, noisy_trial);
  int diffs = 0;
  for (std::size_t t = 0; t < 8; ++t)
    if (ra.per_trial[t].get("value") != rb.per_trial[t].get("value")) ++diffs;
  EXPECT_GT(diffs, 0);
}

TEST(Runner, PerTrialStreamsDoNotOverlap) {
  // Draw a window from every trial's stream; any collision between windows
  // would mean two trials shared (part of) a stream.
  const std::size_t trials = 32;
  const int window = 64;
  run_config cfg;
  cfg.trials = trials;
  cfg.threads = 1;
  cfg.seed = 99;

  std::vector<std::vector<std::uint64_t>> draws(trials);
  const auto res =
      run_trials(cfg, [&draws, window](std::size_t trial, rng& r) {
        for (int i = 0; i < window; ++i) draws[trial].push_back(r());
        metrics m;
        m.set("ok", 1);
        return m;
      });
  ASSERT_EQ(res.per_trial.size(), trials);

  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  for (const auto& w : draws) {
    for (const std::uint64_t v : w) {
      seen.insert(v);
      ++total;
    }
  }
  // 2048 draws of 64-bit values: any repeat at all would be a stream overlap
  // (or a catastrophically broken generator).
  EXPECT_EQ(seen.size(), total);
}

TEST(Runner, StreamBaseShiftsStreams) {
  run_config a;
  a.trials = 4;
  a.threads = 1;
  a.seed = 7;
  run_config b = a;
  b.stream_base = 1;
  const auto ra = run_trials(a, noisy_trial);
  const auto rb = run_trials(b, noisy_trial);
  // Trial t of run b uses stream t+1 = trial t+1 of run a.
  EXPECT_EQ(rb.per_trial[0].get("value"), ra.per_trial[1].get("value"));
  EXPECT_NE(ra.per_trial[0].get("value"), rb.per_trial[0].get("value"));
}

TEST(Runner, PropagatesTrialExceptions) {
  run_config cfg;
  cfg.trials = 16;
  cfg.threads = 4;
  EXPECT_THROW(
      static_cast<void>(run_trials(cfg,
                                   [](std::size_t trial, rng&) -> metrics {
                                     if (trial == 7)
                                       throw std::runtime_error("boom");
                                     metrics m;
                                     m.set("ok", 1);
                                     return m;
                                   })),
      std::runtime_error);
}

TEST(Metrics, SetOverwritesAndPreservesOrder) {
  metrics m;
  m.set("a", 1);
  m.set("b", 2);
  m.set("a", 3);
  ASSERT_EQ(m.items().size(), 2u);
  EXPECT_EQ(m.items()[0].first, "a");
  EXPECT_DOUBLE_EQ(m.get("a"), 3);
  EXPECT_FALSE(m.has("c"));
  EXPECT_THROW(static_cast<void>(m.get("c")), contract_error);
}

TEST(Aggregate, SkipsMissingMetricsPerTrial) {
  std::vector<metrics> per_trial(3);
  per_trial[0].set("always", 1);
  per_trial[1].set("always", 2);
  per_trial[2].set("always", 3);
  per_trial[1].set("sometimes", 10);
  const auto agg = aggregate(per_trial);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg[0].name, "always");
  EXPECT_EQ(agg[0].stats.count, 3u);
  EXPECT_DOUBLE_EQ(agg[0].stats.mean, 2.0);
  EXPECT_EQ(agg[1].name, "sometimes");
  EXPECT_EQ(agg[1].stats.count, 1u);
  EXPECT_DOUBLE_EQ(agg[1].stats.mean, 10.0);
}

experiment make_toy_experiment() {
  experiment e;
  e.id = "toy";
  e.title = "toy";
  e.claim = "none";
  e.profile = "n/a";
  e.make_scenarios = [] {
    std::vector<scenario> out;
    for (const int p : {1, 2}) {
      scenario sc;
      sc.label = "p=" + std::to_string(p);
      sc.params = {{"p", static_cast<double>(p)}};
      sc.run = [p](std::size_t trial, rng& r) {
        metrics m;
        m.set("x", static_cast<double>(r.uniform(100) + 100u * p));
        m.set("trial", static_cast<double>(trial));
        return m;
      };
      out.push_back(std::move(sc));
    }
    return out;
  };
  return e;
}

TEST(Experiment, JsonByteIdenticalAcrossThreadCounts) {
  const experiment e = make_toy_experiment();
  run_config cfg;
  cfg.trials = 32;
  cfg.seed = 4242;

  std::vector<std::string> dumps;
  for (const unsigned threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    dumps.push_back(to_json(e, run_experiment(e, cfg)).dump(2));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

TEST(Experiment, ScenariosUseDisjointStreams) {
  const experiment e = make_toy_experiment();
  run_config cfg;
  cfg.trials = 16;
  cfg.threads = 1;
  const auto r = run_experiment(e, cfg);
  ASSERT_EQ(r.scenarios.size(), 2u);
  // Scenario stream bases differ, so the raw draws differ even though both
  // scenarios share the run seed (the +100*p offset is removed first).
  const auto* a = r.scenarios[0].find("x");
  const auto* b = r.scenarios[1].find("x");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->mean - 100.0, b->mean - 200.0);
}

// The flattened runner puts every (scenario, trial) unit on one queue, so an
// experiment with many scenarios and one trial each must overlap scenarios.
// The sequential-scenario runner this replaced would never overlap them.
TEST(Experiment, ScenarioLevelParallelismEngages) {
  experiment e;
  e.id = "parallel-probe";
  e.title = e.claim = e.profile = "n/a";
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  e.make_scenarios = [&] {
    std::vector<scenario> out;
    for (int s = 0; s < 8; ++s) {
      scenario sc;
      sc.label = "s";
      sc.label += std::to_string(s);
      sc.run = [&](std::size_t, rng&) {
        const int now = in_flight.fetch_add(1) + 1;
        int seen = max_in_flight.load();
        while (seen < now && !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        in_flight.fetch_sub(1);
        metrics m;
        m.set("ok", 1);
        return m;
      };
      out.push_back(std::move(sc));
    }
    return out;
  };
  run_config cfg;
  cfg.trials = 1;  // one trial per scenario: only scenarios can overlap
  cfg.threads = 8;
  const auto r = run_experiment(e, cfg);
  EXPECT_EQ(r.scenarios.size(), 8u);
  EXPECT_GT(max_in_flight.load(), 1);
}

TEST(Experiment, DeclarativeScenarioRunsProbes) {
  experiment e;
  e.id = "decl";
  e.title = e.claim = e.profile = "n/a";
  e.make_scenarios = [] {
    scenario sc;
    sc.label = "path";
    sc.topology = graph::parse_topology_spec("path:n=8");
    sc.options.prm = core::params::fast();
    sc.probes = {{"decay", "decay_rounds"}, {"gst-known", "gst_rounds"}};
    return std::vector<scenario>{std::move(sc)};
  };
  run_config cfg;
  cfg.trials = 3;
  cfg.threads = 2;
  const auto r = run_experiment(e, cfg);
  ASSERT_EQ(r.scenarios.size(), 1u);
  EXPECT_EQ(r.scenarios[0].topology, "path:n=8");
  const auto* decay = r.scenarios[0].find("decay_rounds");
  const auto* gst = r.scenarios[0].find("gst_rounds");
  ASSERT_NE(decay, nullptr);
  ASSERT_NE(gst, nullptr);
  EXPECT_EQ(decay->count, 3u);
  EXPECT_EQ(gst->count, 3u);
  EXPECT_GT(decay->mean, 0.0);
}

// The declarative interpreter's draw contract: one topology-seed draw, then
// one protocol-seed draw per probe — a hand-written trial following it
// produces byte-identical JSON.
TEST(Experiment, DeclarativeMatchesHandWrittenTrial) {
  const char* spec_text = "layered:depth=4,width=3,edge_prob=0.4";
  experiment decl;
  decl.id = "same";
  decl.title = decl.claim = decl.profile = "n/a";
  decl.make_scenarios = [spec_text] {
    scenario sc;
    sc.label = "row";
    sc.topology = graph::parse_topology_spec(spec_text);
    sc.options.prm = core::params::fast();
    sc.probes = {{"decay", "rounds"}};
    return std::vector<scenario>{std::move(sc)};
  };
  experiment hand = decl;
  hand.make_scenarios = [spec_text] {
    scenario sc;
    sc.label = "row";
    sc.run = [spec_text](std::size_t, rng& r) {
      auto spec = graph::parse_topology_spec(spec_text);
      spec.seed = r();
      const auto g = graph::build_topology(spec);
      core::options opt;
      opt.prm = core::params::fast();
      opt.fast_forward = use_fast_forward();
      opt.seed = r();
      metrics m;
      m.set("rounds",
            static_cast<double>(
                core::run_broadcast(g, "decay", {0, 1}, opt)
                    .base.rounds_to_complete));
      return m;
    };
    return std::vector<scenario>{std::move(sc)};
  };
  run_config cfg;
  cfg.trials = 6;
  cfg.seed = 99;
  // Same trials, same draws, same aggregates; under rn-bench-v2 only the
  // declarative run records its "topology" spec, so compare the metrics.
  const auto rd = run_experiment(decl, cfg);
  const auto rh = run_experiment(hand, cfg);
  ASSERT_EQ(rd.scenarios.size(), 1u);
  ASSERT_EQ(rh.scenarios.size(), 1u);
  EXPECT_EQ(rd.scenarios[0].topology, spec_text);
  EXPECT_TRUE(rh.scenarios[0].topology.empty());
  ASSERT_EQ(rd.scenarios[0].summaries.size(), rh.scenarios[0].summaries.size());
  for (std::size_t i = 0; i < rd.scenarios[0].summaries.size(); ++i) {
    EXPECT_EQ(rd.scenarios[0].summaries[i].name,
              rh.scenarios[0].summaries[i].name);
    EXPECT_EQ(rd.scenarios[0].summaries[i].stats.mean,
              rh.scenarios[0].summaries[i].stats.mean);
    EXPECT_EQ(rd.scenarios[0].summaries[i].stats.min,
              rh.scenarios[0].summaries[i].stats.min);
    EXPECT_EQ(rd.scenarios[0].summaries[i].stats.max,
              rh.scenarios[0].summaries[i].stats.max);
  }
}

// The intra-trial backend's acceptance contract: a layered n = 10^4
// scenario produces byte-identical results JSON whether the row walks run
// serially or sharded across a 4-thread team (and at any trial-pool thread
// count on top). The volume floor is lowered so even the sparse late-phase
// rounds exercise the sharded path.
TEST(Experiment, IntraTrialShardCountByteIdentity) {
  experiment e;
  e.id = "shards";
  e.title = e.claim = e.profile = "n/a";
  e.make_scenarios = [] {
    scenario sc;
    sc.label = "layered-1e4";
    sc.topology = graph::parse_topology_spec(
        "layered:depth=50,width=200,edge_prob=0.1");
    sc.options.prm = core::params::fast();
    sc.probes = {{"gst-known", "gst_known"}, {"decay", "decay"}};
    return std::vector<scenario>{std::move(sc)};
  };
  run_config cfg;
  cfg.trials = 2;
  cfg.seed = 31;

  const radio::intra_trial_policy saved = radio::get_intra_trial_policy();
  std::vector<std::string> dumps;
  for (const unsigned shards : {1u, 4u}) {
    for (const unsigned threads : {1u, 2u}) {
      radio::intra_trial_policy pol = saved;
      pol.threads = shards;
      pol.min_parallel_volume = 0;
      radio::set_intra_trial_policy(pol);
      cfg.threads = threads;
      dumps.push_back(to_json(e, run_experiment(e, cfg)).dump(2));
    }
  }
  radio::set_intra_trial_policy(saved);
  for (std::size_t i = 1; i < dumps.size(); ++i)
    EXPECT_EQ(dumps[0], dumps[i]) << "config " << i;
}

// Same contract one level down: the full broadcast_result — rounds,
// completion, channel counters, and the whole per-node energy vector —
// must match field for field between a serial and a sharded run.
TEST(Experiment, IntraTrialShardedEnergyAndRoundsIdentical) {
  auto spec = graph::parse_topology_spec(
      "layered:depth=50,width=200,edge_prob=0.1");
  spec.seed = 4242;
  const graph::graph g = graph::build_topology(spec);
  core::options opt;
  opt.prm = core::params::fast();
  opt.seed = 77;

  const radio::intra_trial_policy saved = radio::get_intra_trial_policy();
  std::vector<core::broadcast_outcome> outcomes;
  for (const unsigned shards : {1u, 4u}) {
    radio::intra_trial_policy pol = saved;
    pol.threads = shards;
    pol.min_parallel_volume = 0;
    radio::set_intra_trial_policy(pol);
    outcomes.push_back(core::run_broadcast(g, "decay", {0, 1}, opt));
  }
  radio::set_intra_trial_policy(saved);
  const auto& a = outcomes[0].base;
  const auto& b = outcomes[1].base;
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds_to_complete, b.rounds_to_complete);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions_observed, b.collisions_observed);
  EXPECT_EQ(a.energy, b.energy);
}

TEST(Experiment, UnknownProbeProtocolThrows) {
  experiment e;
  e.id = "bad";
  e.title = e.claim = e.profile = "n/a";
  e.make_scenarios = [] {
    scenario sc;
    sc.label = "row";
    sc.topology = graph::parse_topology_spec("path:n=4");
    sc.probes = {{"no-such-protocol", "x"}};
    return std::vector<scenario>{std::move(sc)};
  };
  run_config cfg;
  cfg.trials = 1;
  EXPECT_THROW(static_cast<void>(run_experiment(e, cfg)), contract_error);
}

TEST(Experiment, ScenarioNeedsProbesOrTrialFn) {
  scenario sc;
  sc.label = "empty";
  EXPECT_THROW(static_cast<void>(make_trial(sc)), contract_error);
}

TEST(Adhoc, OutOfRangeTopologyValuesFailAtValidation) {
  for (const char* text : test::kOutOfRangeSpecs) {
    adhoc_spec spec;
    spec.topology = text;
    EXPECT_THROW(static_cast<void>(make_adhoc_experiment(spec)),
                 contract_error)
        << text;
  }
}

TEST(Adhoc, EverySweepPointIsValidated) {
  adhoc_spec spec;
  spec.topology = "layered:depth=5,width=4";
  spec.protocols = "decay";
  spec.sweep = "depth=5,6";
  EXPECT_EQ(make_adhoc_experiment(spec).make_scenarios().size(), 2u);
  spec.sweep = "depth=5,0";  // only the second point is out of range
  EXPECT_THROW(static_cast<void>(make_adhoc_experiment(spec)), contract_error);
  spec.sweep = "depth=5,2.5";
  EXPECT_THROW(static_cast<void>(make_adhoc_experiment(spec)), contract_error);
}

TEST(Adhoc, SeedDependentGenerationFailsTheRun) {
  adhoc_spec spec;
  spec.topology = "gnp:n=2000,p=0.0001";
  spec.protocols = "decay";
  const experiment e = make_adhoc_experiment(spec);  // names and ranges hold
  run_config cfg;
  cfg.trials = 1;
  try {
    static_cast<void>(run_experiment(e, cfg));
    FAIL() << "a never-connected G(n,p) ran";
  } catch (const contract_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("never connected"),
              std::string::npos)
        << ex.what();
  }
}

TEST(Json, ScalarFormatting) {
  EXPECT_EQ(json_value().dump(), "null");
  EXPECT_EQ(json_value(true).dump(), "true");
  EXPECT_EQ(json_value(3.0).dump(), "3");
  EXPECT_EQ(json_value(-17.0).dump(), "-17");
  EXPECT_EQ(json_value(0.5).dump(), "0.5");
  EXPECT_EQ(json_value("hi\"\n").dump(), "\"hi\\\"\\n\"");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  json_value o = json_value::object();
  o["z"] = 1;
  o["a"] = 2;
  o["z"] = 3;  // overwrite keeps position
  EXPECT_EQ(o.dump(), "{\"z\":3,\"a\":2}");
  json_value arr = json_value::array();
  arr.push_back(1);
  arr.push_back("two");
  EXPECT_EQ(arr.dump(), "[1,\"two\"]");
}

TEST(Json, DeepNestingRaisesInsteadOfOverflowingTheStack) {
  // Regression: the reader recurses per container level, so before the
  // depth guard a "[[[[..." document blew the stack and killed the
  // process — in rn_serve, a remote crash from one malformed request
  // line. Depths within the bound still parse; past it, contract_error.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_EQ(parse_json(deep).size(), 1u);

  std::string evil(100000, '[');
  EXPECT_THROW(static_cast<void>(parse_json(evil)), contract_error);

  std::string evil_obj;
  for (int i = 0; i < 100000; ++i) evil_obj += "{\"k\":";
  EXPECT_THROW(static_cast<void>(parse_json(evil_obj)), contract_error);
}

TEST(Cli, ParsesAllFlags) {
  const char* argv[] = {"bench_suite", "--experiment", "e1", "--trials", "64",
                        "--threads",   "8",            "--seed", "5",
                        "--json",      "out.json",
                        "--intra-trial-threads", "4"};
  cli_options opt;
  ASSERT_TRUE(parse_cli(13, const_cast<char**>(argv), opt));
  EXPECT_EQ(opt.experiment, "e1");
  EXPECT_EQ(opt.trials, 64u);
  EXPECT_EQ(opt.threads, 8u);
  EXPECT_EQ(opt.seed, 5u);
  EXPECT_EQ(opt.json_path, "out.json");
  EXPECT_EQ(opt.intra_trial_threads, 4u);
}

TEST(Cli, ParsesAdhocWorkloadFlags) {
  const char* argv[] = {"bench_suite", "--topology",
                        "layered:depth=12,width=8", "--protocol",
                        "decay,gst-known", "--sweep", "width=4,8,16",
                        "--messages", "3"};
  cli_options opt;
  ASSERT_TRUE(parse_cli(9, const_cast<char**>(argv), opt));
  EXPECT_EQ(opt.topology, "layered:depth=12,width=8");
  EXPECT_EQ(opt.protocols, "decay,gst-known");
  EXPECT_EQ(opt.sweep, "width=4,8,16");
  EXPECT_EQ(opt.messages, 3u);
}

TEST(Cli, RejectsBadInput) {
  cli_options opt;
  const char* bad_flag[] = {"x", "--nope"};
  EXPECT_FALSE(parse_cli(2, const_cast<char**>(bad_flag), opt));
  const char* bad_num[] = {"x", "--trials", "abc"};
  EXPECT_FALSE(parse_cli(3, const_cast<char**>(bad_num), opt));
  const char* zero_trials[] = {"x", "--trials", "0"};
  EXPECT_FALSE(parse_cli(3, const_cast<char**>(zero_trials), opt));
}

// bench/perf/run.py fingerprints a host by the timing sidecar's "simd"
// field and refuses to compare reports from different fingerprints, so the
// field must name the host's vector ISA whatever the walk runs on.
TEST(HostIsa, ActiveSimdLevelFollowsCpuid) {
  radio::simd_level want = radio::simd_level::scalar;
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
    want = radio::simd_level::avx512;
  else if (__builtin_cpu_supports("avx2"))
    want = radio::simd_level::avx2;
#endif
  EXPECT_EQ(radio::active_simd_level(), want);
  EXPECT_STREQ(radio::to_string(radio::simd_level::scalar), "scalar");
  EXPECT_STREQ(radio::to_string(radio::simd_level::avx2), "avx2");
  EXPECT_STREQ(radio::to_string(radio::simd_level::avx512), "avx512");
}

TEST(HostIsa, TimingSidecarReportsIt) {
  // run.py's own probe, with the process defaults spelled out so the run
  // leaves the global policies as the other tests expect them.
  const std::string path = ::testing::TempDir() + "rn_host_isa_timing.json";
  const char* argv[] = {"bench_suite", "--topology", "path:n=8",
                        "--trials", "1", "--intra-trial-threads", "1",
                        "--timing", path.c_str()};
  ASSERT_EQ(run_suite(9, const_cast<char**>(argv)), 0);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const json_value timing = parse_json(text.str());
  const json_value* simd = timing.find("simd");
  ASSERT_NE(simd, nullptr);
  EXPECT_EQ(simd->as_string(),
            radio::to_string(radio::active_simd_level()));
}

}  // namespace
}  // namespace rn::sim
