// M1 — micro-benchmarks (google-benchmark): simulator and coding throughput.
#include <benchmark/benchmark.h>

#include <functional>

#include "baseline/decay.h"
#include "coding/gf2.h"
#include "common/rng.h"
#include "core/gst_broadcast.h"
#include "core/gst_centralized.h"
#include "core/gst_distributed.h"
#include "graph/generators.h"
#include "radio/network.h"
#include "sim/adhoc.h"

using namespace rn;

// The owned-packet slow path: every round mints per-node packets into the
// round_buffer arena and dispatches receptions through a type-erased
// std::function. (Historically this measured the deleted legacy by-value
// step adapter; the round shape is unchanged so the perf trajectory stays
// comparable.)
static void BM_NetworkStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 1);
  radio::network net(g, {.collision_detection = true});
  rng r(1);
  radio::round_buffer txs;
  const std::function<void(const radio::reception&)> on_rx =
      [](const radio::reception&) {};
  for (auto _ : state) {
    txs.clear();
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(3))
        txs.add_owned(v, radio::packet::make_beacon(v));
    net.step(txs, on_rx);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NetworkStep)->Arg(64)->Arg(512)->Arg(4096);

// The zero-allocation transmit path: a reusable round_buffer referencing
// per-node flyweight packets, receptions statically dispatched. Same round
// shape as BM_NetworkStep minus the per-round packet copies and the
// std::function hop — the gap between the two is the type-erasure tax.
static void BM_StepNoAlloc(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 1);
  radio::network net(g, {.collision_detection = true});
  rng r(1);
  std::vector<radio::packet> beacons;
  beacons.reserve(n);
  for (node_id v = 0; v < n; ++v)
    beacons.push_back(radio::packet::make_beacon(v));
  radio::round_buffer txs;
  std::int64_t sink = 0;
  for (auto _ : state) {
    txs.clear();
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(3)) txs.add(v, beacons[v]);
    net.step(txs, [&](const radio::reception& rx) { sink += rx.listener; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StepNoAlloc)->Arg(64)->Arg(512)->Arg(4096);

// The intra-trial sharded walk: same dense round as BM_StepNoAlloc on a
// bigger graph, row walks sharded across Arg(0) team threads (volume floor
// lowered so every round engages the team). Arg(0)=1 is the serial walk —
// the ratio between the two rows is the intra-trial speedup on this
// machine; results are byte-identical either way (tests/test_radio.cpp).
static void BM_StepSharded(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  const auto g = graph::random_gnp_connected(n, 16.0 / static_cast<double>(n), 1);
  radio::network net(g, {.collision_detection = true});
  net.set_min_parallel_volume(0);
  net.enable_intra_trial(static_cast<unsigned>(state.range(0)));
  rng r(1);
  std::vector<radio::packet> beacons;
  beacons.reserve(n);
  for (node_id v = 0; v < n; ++v)
    beacons.push_back(radio::packet::make_beacon(v));
  radio::round_buffer txs;
  std::int64_t sink = 0;
  for (auto _ : state) {
    txs.clear();
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(3)) txs.add(v, beacons[v]);
    net.step(txs, [&](const radio::reception& rx) { sink += rx.listener; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StepSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The sharded walk where it matters: the layered n = 1.5·10^5 graph of the
// repository benchmark's layered-150k workload (~2.9·10^6 edges, far beyond
// L2), stepped through Decay-density rounds — in round i of a sweep each
// node transmits with probability 2^-(i+1) — whose transmit lists are
// shuffled, as the Decay coin calendar emits them. Arg(0) = team size at
// the default volume floor; one iteration steps one round, cycling the
// sweep, and items are the row entries walked.
static void BM_StepShardedLayered(benchmark::State& state) {
  graph::layered_options lo;
  lo.depth = 50;
  lo.width = 3000;
  lo.edge_prob = 0.0066;
  lo.seed = 1;
  const auto g = graph::random_layered(lo);
  radio::network net(g, {.collision_detection = true});
  net.enable_intra_trial(static_cast<unsigned>(state.range(0)));
  const radio::packet pkt = radio::packet::make_noise();
  const std::size_t n = g.node_count();
  rng r(1);
  std::vector<radio::round_buffer> rounds;
  std::vector<std::int64_t> volume;
  std::vector<node_id> ids;
  for (int i = 1; (std::size_t{1} << (i - 1)) < n; ++i) {
    ids.clear();
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(i)) ids.push_back(v);
    for (std::size_t k = ids.size(); k > 1; --k)  // Fisher-Yates
      std::swap(ids[k - 1], ids[r.uniform(k)]);
    radio::round_buffer& txs = rounds.emplace_back();
    std::int64_t edges = 0;
    for (const node_id v : ids) {
      txs.add(v, pkt);
      edges += static_cast<std::int64_t>(g.degree(v));
    }
    volume.push_back(edges);
  }
  std::int64_t sink = 0;
  std::int64_t walked = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    net.step(rounds[next],
             [&](const radio::reception& rx) { sink += rx.listener; });
    walked += volume[next];
    next = next + 1 == rounds.size() ? 0 : next + 1;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(walked);
}
BENCHMARK(BM_StepShardedLayered)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Per-round cost of the Decay baseline on its batched coin calendar
// (counter-based blocks + next-transmit sampling; baseline/decay.h). Tracks
// the e10 Decay column's hot loop; items = simulated protocol rounds.
static void BM_DecayRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 1);
  std::uint64_t seed = 1;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    baseline::decay_options opt;
    opt.seed = ++seed;
    opt.fast_forward = true;
    const auto res = baseline::run_decay_broadcast(g, 0, opt);
    rounds += res.rounds_executed;
    benchmark::DoNotOptimize(res.transmissions);
  }
  state.SetItemsProcessed(rounds);
  state.counters["rounds_per_run"] =
      static_cast<double>(rounds) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_DecayRound)->Arg(512)->Arg(4096)->Unit(benchmark::kMicrosecond);

// Fast-forwarding idle rounds must stay O(1) per call regardless of graph
// size — this tracks the advance() hot path (and would catch any accidental
// per-node work creeping into it).
static void BM_NetworkAdvance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 1);
  radio::network net(g, {.collision_detection = true});
  for (auto _ : state) {
    net.advance(1 << 20);
    benchmark::DoNotOptimize(net.now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkAdvance)->Arg(64)->Arg(4096);

// End-to-end fast-forwarded Theorem 2.1 construction: the protocol simulates
// ~10^6 rounds; wall-clock here tracks how well the quiet-round analysis
// collapses them (the CI perf gate trends this).
static void BM_GstConstructionFastForward(benchmark::State& state) {
  graph::layered_options lo;
  lo.depth = static_cast<std::size_t>(state.range(0));
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = 5;
  const auto g = graph::random_layered(lo);
  core::distributed_gst_options opt;
  opt.seed = 11;
  opt.prm = core::params::fast();
  opt.fast_forward = true;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    auto out = core::build_gst_distributed_single(g, 0, opt);
    rounds = out.rounds;
    benchmark::DoNotOptimize(out.parent_rank.data());
  }
  state.counters["protocol_rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_GstConstructionFastForward)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

static void BM_Gf2DecoderInsert(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  rng r(2);
  coding::gf2_decoder src(k, 32);
  for (std::size_t i = 0; i < k; ++i)
    src.insert(coding::gf2_vector::unit(k, i),
               std::vector<std::uint8_t>(32, static_cast<std::uint8_t>(i)));
  for (auto _ : state) {
    state.PauseTiming();
    coding::gf2_decoder sink(k, 32);
    state.ResumeTiming();
    while (!sink.complete()) {
      auto row = src.random_combination(r);
      sink.insert(std::move(row.coeffs), std::move(row.payload));
    }
    benchmark::DoNotOptimize(sink.rank());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_Gf2DecoderInsert)->Arg(8)->Arg(64)->Arg(256);

static void BM_CentralizedGst(benchmark::State& state) {
  graph::layered_options lo;
  lo.depth = static_cast<std::size_t>(state.range(0));
  lo.width = 8;
  lo.edge_prob = 0.4;
  lo.seed = 3;
  const auto g = graph::random_layered(lo);
  for (auto _ : state) {
    auto t = core::build_gst_centralized(g, 0);
    benchmark::DoNotOptimize(t.max_rank());
  }
}
BENCHMARK(BM_CentralizedGst)->Arg(8)->Arg(32)->Arg(128);

// Centralized GST construction on the layered-150k workload's graph (the
// spec of BM_StepShardedLayered): the per-trial setup cost every
// gst-known / rlnc-known trial pays before its first round.
static void BM_CentralizedGstLayered(benchmark::State& state) {
  graph::layered_options lo;
  lo.depth = 50;
  lo.width = 3000;
  lo.edge_prob = 0.0066;
  lo.seed = 1;
  const auto g = graph::random_layered(lo);
  for (auto _ : state) {
    auto t = core::build_gst_centralized(g, 0);
    benchmark::DoNotOptimize(t.max_rank());
  }
}
BENCHMARK(BM_CentralizedGstLayered)->Unit(benchmark::kMillisecond);

// One gst-known broadcast on the same graph at seed 1, fast-forwarded as
// bench_suite runs it, with the GST and its derived data built outside the
// timed loop: the round loop (slow-slot coins, fast slots, the walk) and
// the network it builds.
static void BM_GstKnownLayered(benchmark::State& state) {
  graph::layered_options lo;
  lo.depth = 50;
  lo.width = 3000;
  lo.edge_prob = 0.0066;
  lo.seed = 1;
  const auto g = graph::random_layered(lo);
  const auto t = core::build_gst_centralized(g, 0);
  const auto d = core::derive(g, t);
  core::gst_broadcast_options opt;
  opt.seed = 1;
  opt.fast_forward = true;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const auto res = core::run_gst_single_broadcast(g, t, d, {0}, opt);
    rounds = res.rounds_executed;
    benchmark::DoNotOptimize(res.transmissions);
  }
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_GstKnownLayered)->Unit(benchmark::kMillisecond);

// Validating and assembling the ad-hoc experiment for the same spec — what
// `bench_suite --topology ...` and every ad-hoc rn_serve request (cache hit
// or miss) pay before any trial runs.
static void BM_AdhocExperiment(benchmark::State& state) {
  sim::adhoc_spec spec;
  spec.topology = "layered:depth=50,width=3000,edge_prob=0.0066";
  spec.protocols = "gst-known,decay";
  for (auto _ : state) {
    auto e = sim::make_adhoc_experiment(spec);
    benchmark::DoNotOptimize(e.default_trials);
  }
}
BENCHMARK(BM_AdhocExperiment)->Unit(benchmark::kMicrosecond);

static void BM_RngPow2(benchmark::State& state) {
  rng r(4);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += r.with_probability_pow2(5) ? 1 : 0;
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngPow2);

BENCHMARK_MAIN();
