// Distributed backend: streamed-vs-filtered partitioned views,
// block-walker identity against a serial reference at every rank/thread
// split, fork-only session byte-identity
// through the declarative runner, wire-level fuzz of the framing error
// paths, and the fault matrix — injected crashes, wedges, truncations, and
// delays must recover (respawn or degrade) with byte-identical results JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/check.h"
#include "core/params.h"
#include "dist/fault.h"
#include "dist/session.h"
#include "dist/supervisor.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "graph/generators.h"
#include "graph/partitioned.h"
#include "graph/topology.h"
#include "radio/block_walk.h"
#include "sim/adhoc.h"
#include "sim/experiment.h"
#include "sim/json.h"

namespace rn::dist {
namespace {

constexpr unsigned kBlocks = core::kChannelContractBlocks;

// --- partitioned views ----------------------------------------------------

graph::block_plan plan_of(const graph::graph& g) {
  return graph::compute_block_plan(g, kBlocks);
}

TEST(PartitionedView, StreamedLayeredBuildEqualsFilteredBuild) {
  graph::layered_options opt;
  opt.depth = 7;
  opt.width = 23;
  opt.edge_prob = 0.2;
  opt.seed = 31;
  const graph::graph g = graph::random_layered(opt);
  const graph::block_plan plan = plan_of(g);

  for (const auto& [first, last] :
       {std::pair{0u, kBlocks}, {0u, 11u}, {11u, 21u}, {21u, kBlocks}}) {
    const auto filtered = graph::partitioned_view::from_graph(
        g, plan, first, last);
    const auto streamed = graph::partitioned_view::from_edge_source(
        g.node_count(),
        [&](const graph::edge_sink& sink) {
          graph::for_each_layered_edge(
              opt, [&](node_id u, node_id v) { sink(u, v); });
        },
        kBlocks, first, last);
    ASSERT_EQ(streamed.plan().bounds, plan.bounds)
        << "streamed degree pass disagreed with the resident graph";
    EXPECT_EQ(streamed.row_start(), filtered.row_start());
    EXPECT_EQ(streamed.adjacency(), filtered.adjacency());
    EXPECT_EQ(streamed.owned_begin(), filtered.owned_begin());
    EXPECT_EQ(streamed.owned_end(), filtered.owned_end());
  }
}

// --- block walker vs serial reference -------------------------------------

/// The serial walk's per-reception update: transmitter index i touches the
/// listener holding word hs.
std::uint64_t serial_update(std::uint64_t hs, std::uint32_t i) {
  return ((hs + (std::uint64_t{1} << 32)) & 0xffffffff00000000ULL) | i;
}

struct reference_walk {
  std::vector<std::uint64_t> words;             ///< indexed by node id
  std::vector<std::vector<node_id>> touched;    ///< per block, touch order
};

reference_walk serial_reference(const graph::graph& g,
                                const graph::block_plan& plan,
                                std::span<const node_id> tx_ids) {
  reference_walk ref;
  ref.words.assign(g.node_count(), 0);
  ref.touched.resize(plan.blocks());
  const auto block_of = [&](node_id v) {
    return unsigned(std::upper_bound(plan.bounds.begin(), plan.bounds.end(),
                                     v) -
                    plan.bounds.begin()) -
           1;
  };
  for (std::size_t i = 0; i < tx_ids.size(); ++i)
    for (const node_id v : g.neighbors(tx_ids[i])) {
      std::uint64_t& hs = ref.words[v];
      if (hs == 0) ref.touched[block_of(v)].push_back(v);
      hs = serial_update(hs, std::uint32_t(i));
    }
  return ref;
}

using walker_ptr = std::unique_ptr<radio::block_walker>;

/// A rank's walker bound to its view as a worker binds it — in place for
/// one thread, member slices for a team of `threads` — whose team takes
/// every non-empty round.
walker_ptr rank_walker(const graph::partitioned_view& v, unsigned threads) {
  auto w = std::make_unique<radio::block_walker>();
  w->bind(v.plan().bounds, v.first_block(), v.last_block());
  w->set_min_parallel_volume(0);
  if (threads >= 2)
    w->slice([&v](node_id u) { return v.row(u); }, threads);
  else
    w->attach({v.row_start().data(), v.adjacency().data()});
  return w;
}

/// Walks `txs` on every rank's view and asserts each owned block's touch
/// list and hit words equal the serial reference; clears the round state.
void expect_ranks_match(const std::vector<graph::partitioned_view>& views,
                        const std::vector<walker_ptr>& walkers,
                        const reference_walk& ref,
                        std::span<const node_id> txs) {
  for (std::size_t rk = 0; rk < views.size(); ++rk) {
    radio::block_walker& w = *walkers[rk];
    w.walk(txs);
    for (unsigned b = views[rk].first_block(); b < views[rk].last_block();
         ++b) {
      const auto got = w.touched(b);
      ASSERT_EQ(std::vector<node_id>(got.begin(), got.end()), ref.touched[b])
          << "rank=" << rk << " block=" << b;
      for (const node_id v : got) ASSERT_EQ(w.hit_word(v), ref.words[v]) << v;
    }
    w.clear_round();
  }
}

/// Six dense rounds (a quarter of the nodes) plus rounds the walk loop's
/// prefetch must not trip over — no transmitter, one, and fewer than each
/// prefetch distance — every list shuffled: dispatch, not id order.
std::vector<std::vector<node_id>> test_rounds(std::size_t n,
                                              std::mt19937_64& r) {
  std::vector<std::vector<node_id>> rounds;
  for (int round = 0; round < 6; ++round) {
    auto& txs = rounds.emplace_back();
    for (node_id v = 0; v < n; ++v)
      if (r() % 4 == 0) txs.push_back(v);
  }
  for (const std::size_t m : {0u, 1u, 5u, 12u, 17u}) {
    std::vector<node_id> ids(n);
    for (node_id v = 0; v < n; ++v) ids[v] = v;
    std::shuffle(ids.begin(), ids.end(), r);
    rounds.emplace_back(ids.begin(), ids.begin() + m);
  }
  for (auto& txs : rounds) std::shuffle(txs.begin(), txs.end(), r);
  return rounds;
}

TEST(BlockWalker, MatchesSerialReferenceAtEveryRankAndThreadSplit) {
  graph::layered_options opt;
  opt.depth = 6;
  opt.width = 40;
  opt.edge_prob = 0.15;
  opt.seed = 8;
  const graph::graph g = graph::random_layered(opt);
  const graph::block_plan plan = plan_of(g);

  std::mt19937_64 r(5);
  // Rank count 3 exercises the non-dividing split (32 = 10 + 11 + 11).
  for (const unsigned ranks : {1u, 2u, 3u, 4u}) {
    std::vector<graph::partitioned_view> views;
    views.reserve(ranks);
    for (unsigned rk = 0; rk < ranks; ++rk)
      views.push_back(graph::partitioned_view::from_graph(
          g, plan, kBlocks * rk / ranks, kBlocks * (rk + 1) / ranks));

    for (const unsigned threads : {1u, 2u, 3u, 5u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " threads=" + std::to_string(threads));
      std::vector<walker_ptr> walkers;
      for (const auto& v : views) walkers.push_back(rank_walker(v, threads));
      for (const auto& txs : test_rounds(g.node_count(), r))
        expect_ranks_match(views, walkers, serial_reference(g, plan, txs),
                           txs);
    }
  }
}

TEST(BlockWalker, TeamsAreCappedAtTheOwnedBlocks) {
  // 32 ranks own one block each and 16 ranks two: a team of 3 is capped to
  // one member per owned block — the one-block rank walks its single CSR
  // on the calling thread, the two-block rank runs a team of 2 — and both
  // must still match.
  graph::layered_options opt;
  opt.depth = 5;
  opt.width = 30;
  opt.edge_prob = 0.2;
  opt.seed = 3;
  const graph::graph g = graph::random_layered(opt);
  const graph::block_plan plan = plan_of(g);
  for (const unsigned width : {1u, 2u}) {
    SCOPED_TRACE("blocks per rank=" + std::to_string(width));
    std::vector<graph::partitioned_view> views;
    std::vector<walker_ptr> walkers;
    for (unsigned b = 0; b < kBlocks; b += width)
      views.push_back(
          graph::partitioned_view::from_graph(g, plan, b, b + width));
    for (const auto& v : views) {
      walkers.push_back(rank_walker(v, 3));
      EXPECT_EQ(walkers.back()->team_size(), width);
    }
    std::mt19937_64 r(17);
    for (const auto& txs : test_rounds(g.node_count(), r))
      expect_ranks_match(views, walkers, serial_reference(g, plan, txs), txs);
  }
}

TEST(BlockWalker, BelowTheFloorTheCallerWalksEverySlice) {
  // A rank with a team of 3 whose rounds never reach the volume floor: the
  // calling thread walks the member slices one after another, and the
  // words and touch orders must still equal the serial reference.
  graph::layered_options opt;
  opt.depth = 6;
  opt.width = 40;
  opt.edge_prob = 0.15;
  opt.seed = 8;
  const graph::graph g = graph::random_layered(opt);
  const graph::block_plan plan = plan_of(g);
  std::vector<graph::partitioned_view> views;
  views.push_back(graph::partitioned_view::from_graph(g, plan, 3, 20));
  std::vector<walker_ptr> walkers;
  walkers.push_back(rank_walker(views[0], 3));
  walkers[0]->set_min_parallel_volume(std::numeric_limits<std::size_t>::max());
  const std::int64_t parallel =
      radio::block_walker::process_totals().parallel_rounds;
  std::mt19937_64 r(23);
  for (const auto& txs : test_rounds(g.node_count(), r))
    expect_ranks_match(views, walkers, serial_reference(g, plan, txs), txs);
  EXPECT_EQ(radio::block_walker::process_totals().parallel_rounds, parallel);
}

TEST(BlockWalker, BlocksNoTransmitterReachesStayEmpty) {
  // Two disjoint stars: hub 0 with leaves 1..40, hub 41 with leaves
  // 42..81. Only the first star's leaves transmit, so every block past the
  // first star gets no row entry from any transmitter — whichever member
  // slice holds it must leave its touch list empty.
  graph::graph::builder bld(82);
  for (node_id leaf = 1; leaf <= 40; ++leaf) bld.add_edge(0, leaf);
  for (node_id leaf = 42; leaf <= 81; ++leaf) bld.add_edge(41, leaf);
  const graph::graph g = std::move(bld).build();
  const graph::block_plan plan = plan_of(g);
  std::vector<node_id> txs;
  for (node_id leaf = 1; leaf <= 40; ++leaf) txs.push_back(leaf);
  const reference_walk ref = serial_reference(g, plan, txs);
  unsigned empty_blocks = 0;
  for (unsigned b = 0; b < kBlocks; ++b) empty_blocks += ref.touched[b].empty();
  ASSERT_GT(empty_blocks, 1u) << "fixture must leave owned blocks empty";

  for (const unsigned ranks : {1u, 2u}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    std::vector<graph::partitioned_view> views;
    std::vector<walker_ptr> walkers;
    for (unsigned rk = 0; rk < ranks; ++rk)
      views.push_back(graph::partitioned_view::from_graph(
          g, plan, kBlocks * rk / ranks, kBlocks * (rk + 1) / ranks));
    for (const auto& v : views) walkers.push_back(rank_walker(v, 4));
    expect_ranks_match(views, walkers, ref, txs);
  }
}

// --- fork-only session through the declarative runner ---------------------

TEST(DistSession, ForkOnlyRunIsByteIdenticalToLocal) {
  // Spawn the fleet before anything in this test grows threads.
  session_options so;
  so.ranks = 3;  // non-dividing block split on a real fleet
  so.intra_trial_threads = 2;
  session s(so);

  sim::adhoc_spec spec;
  spec.topology = "layered:depth=6,width=9,edge_prob=0.3";
  spec.protocols = "decay,gst-known";
  const sim::experiment e = sim::make_adhoc_experiment(spec);
  sim::run_config rc;
  rc.trials = 2;
  rc.seed = 11;

  const sim::experiment_result local = sim::run_experiment(e, rc);
  const std::string local_json = sim::to_json(e, local).dump(2);

  s.install();
  const sim::experiment_result dist = sim::run_experiment(e, rc);
  s.uninstall();
  EXPECT_EQ(sim::to_json(e, dist).dump(2), local_json);

  const session_totals t = s.totals();
  EXPECT_EQ(t.trials, 2u);
  EXPECT_GT(t.bytes_sent, 0u);
  EXPECT_GT(t.bytes_received, 0u);
  ASSERT_EQ(t.peak_rss_kb_per_rank.size(), 3u);
  for (const std::int64_t kb : t.peak_rss_kb_per_rank) EXPECT_GT(kb, 0);
}

// --- wire-level fuzz: framing failures are structured, never hangs --------

TEST(WireFuzz, TruncatedLengthPrefixIsStructuredClosed) {
  auto [a, b] = make_channel_pair();
  const std::uint8_t partial[2] = {9, 0};  // 2 of the 4 length bytes, then EOF
  ASSERT_EQ(::write(a.fd(), partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  a.close();
  b.set_deadline_ms(2000);
  std::vector<std::uint8_t> payload;
  try {
    (void)b.recv(payload);
    FAIL() << "recv accepted a truncated length prefix";
  } catch (const wire_error& e) {
    EXPECT_EQ(e.kind(), wire_errc::closed);
  }
}

TEST(WireFuzz, OversizedLengthPrefixIsStructuredCorrupt) {
  auto [a, b] = make_channel_pair();
  b.set_max_frame_bytes(1024);
  std::uint8_t header[5];
  const std::uint32_t body = 1u << 20;  // claims 1 MiB against a 1 KiB cap
  std::memcpy(header, &body, 4);
  header[4] = static_cast<std::uint8_t>(msg_type::round);
  ASSERT_EQ(::write(a.fd(), header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  b.set_deadline_ms(2000);
  std::vector<std::uint8_t> payload;
  try {
    (void)b.recv(payload);
    FAIL() << "recv accepted an oversized length prefix";
  } catch (const wire_error& e) {
    EXPECT_EQ(e.kind(), wire_errc::corrupt);
  }
}

TEST(WireFuzz, EmptyRawPayloadRoundTrips) {
  // A block with no touched listeners writes raw(empty.data(), 0): the
  // empty vector's data() may be null, and the frame must still round-trip.
  const std::vector<node_id> none;
  wire_writer w;
  w.u32(3);
  w.u32(0);
  w.raw(none.data(), none.size() * 4);
  w.u32(7);
  auto [a, b] = make_channel_pair();
  a.send(msg_type::round_results, w);
  b.set_deadline_ms(2000);
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(b.recv(payload), msg_type::round_results);
  EXPECT_EQ(payload, w.bytes);
  wire_reader in(payload);
  EXPECT_EQ(in.u32(), 3u);
  EXPECT_EQ(in.u32(), 0u);
  static_cast<void>(in.raw(0));
  EXPECT_EQ(in.u32(), 7u);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(WireFuzz, ZeroLengthFrameIsStructuredCorrupt) {
  auto [a, b] = make_channel_pair();
  std::uint8_t header[5] = {0, 0, 0, 0, 0};  // body 0: no room for a type byte
  ASSERT_EQ(::write(a.fd(), header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  b.set_deadline_ms(2000);
  std::vector<std::uint8_t> payload;
  try {
    (void)b.recv(payload);
    FAIL() << "recv accepted a zero-length frame";
  } catch (const wire_error& e) {
    EXPECT_EQ(e.kind(), wire_errc::corrupt);
  }
}

TEST(WireFuzz, MidFrameEofIsStructuredClosed) {
  auto [a, b] = make_channel_pair();
  wire_writer w;
  for (std::uint32_t i = 0; i < 64; ++i) w.u32(i);
  a.send_truncated(msg_type::round_results, w, w.bytes.size() / 2);
  a.close();  // peer died mid-write
  b.set_deadline_ms(2000);
  std::vector<std::uint8_t> payload;
  try {
    (void)b.recv(payload);
    FAIL() << "recv accepted a frame shorter than its length prefix";
  } catch (const wire_error& e) {
    EXPECT_EQ(e.kind(), wire_errc::closed);
    EXPECT_NE(std::string(e.what()).find("mid-frame"), std::string::npos);
  }
}

TEST(WireFuzz, RecvDeadlineExpiresInsteadOfHanging) {
  auto [a, b] = make_channel_pair();
  b.set_deadline_ms(100);
  const auto t0 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) measures that the recv deadline actually expired (test-only timing)
  std::vector<std::uint8_t> payload;
  try {
    (void)b.recv(payload);  // nothing will ever arrive
    FAIL() << "recv returned without data";
  } catch (const wire_error& e) {
    EXPECT_EQ(e.kind(), wire_errc::timeout);
  }
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)  // rn-lint: allow(R1) measures that the recv deadline actually expired (test-only timing)
                      .count();
  EXPECT_GE(ms, 90) << "deadline fired early";
  EXPECT_LT(ms, 5000) << "deadline overshot by far too much";
  a.close();
}

// --- fault plan + supervision policy units --------------------------------

TEST(FaultPlan, ParsesAndFiresEachEntryOnce) {
  fault_plan p = fault_plan::parse(
      "kill:rank=1,trial=0,round=4;delay:rank=0,trial=1,round=2,ms=50");
  EXPECT_EQ(p.take(0, 0, 4), nullptr);  // wrong rank
  EXPECT_EQ(p.take(1, 0, 3), nullptr);  // wrong round
  const fault_spec* f = p.take(1, 0, 4);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->kind, fault_kind::kill);
  EXPECT_EQ(p.take(1, 0, 4), nullptr);  // one-shot: consumed at send time
  const fault_spec* d = p.take(0, 1, 2);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, fault_kind::delay);
  EXPECT_EQ(d->arg_ms, 50u);
  EXPECT_TRUE(fault_plan::parse("").empty());
}

TEST(FaultPlan, RejectsMalformedEntries) {
  EXPECT_THROW((void)fault_plan::parse("explode:rank=0,trial=0,round=0"),
               contract_error);
  EXPECT_THROW((void)fault_plan::parse("kill:rank=0"), contract_error);
  EXPECT_THROW((void)fault_plan::parse("kill:rank=0,trial=0,round=0,bogus=1"),
               contract_error);
  EXPECT_THROW((void)fault_plan::parse("kill:rank=x,trial=0,round=0"),
               contract_error);
  EXPECT_THROW((void)fault_plan::parse("delay:rank=0,trial=0,round=0"),
               contract_error);  // delay needs ms=
}

TEST(SupervisePolicy, BackoffIsBoundedExponential) {
  supervise_policy p;
  p.backoff_base_ms = 100;
  p.backoff_cap_ms = 5000;
  EXPECT_EQ(backoff_delay_ms(p, 0), 100u);
  EXPECT_EQ(backoff_delay_ms(p, 1), 200u);
  EXPECT_EQ(backoff_delay_ms(p, 2), 400u);
  EXPECT_EQ(backoff_delay_ms(p, 10), 5000u);   // capped
  EXPECT_EQ(backoff_delay_ms(p, 63), 5000u);   // shift clamp: no overflow
}

// --- fault matrix: recovery is byte-identical ------------------------------

struct run_outcome {
  std::string json;
  session_totals totals;
};

/// Runs the experiment through a fresh fleet and returns the results JSON
/// plus the session counters. rc must be effectively single-threaded: the
/// fork-only fleet respawns ranks mid-run, and forking a multithreaded
/// driver is not safe.
run_outcome run_dist(const sim::experiment& e, const sim::run_config& rc,
                     session_options so) {
  session s(std::move(so));
  s.install();
  const sim::experiment_result res = sim::run_experiment(e, rc);
  s.uninstall();
  return {sim::to_json(e, res).dump(2), s.totals()};
}

struct fault_fixture {
  sim::experiment e;
  sim::run_config rc;
  std::string local_json;

  fault_fixture() {
    sim::adhoc_spec spec;
    spec.topology = "layered:depth=6,width=9,edge_prob=0.3";
    spec.protocols = "decay,gst-known";
    e = sim::make_adhoc_experiment(spec);
    rc.trials = 1;
    rc.threads = 1;  // single-threaded driver: fork-only respawn is safe
    rc.seed = 11;
    local_json =
        sim::to_json(e, sim::run_experiment(e, rc)).dump(2);
  }
};

session_options fast_recovery_options(unsigned ranks) {
  session_options so;
  so.ranks = ranks;
  so.policy.round_deadline_ms = 500;  // wedge detection the tests can afford
  so.policy.backoff_base_ms = 1;
  so.policy.backoff_cap_ms = 4;
  return so;
}

TEST(DistFaultMatrix, KilledRankIsByteIdenticalAtEveryRoundAndVictim) {
  const fault_fixture fx;

  // Learn the trial's stepped-round count from a fault-free fleet run
  // (default deadlines: a loaded CI runner must not trip a spurious
  // respawn here — the counters are asserted exactly).
  std::uint64_t rounds = 0;
  {
    session_options clean_so;
    clean_so.ranks = 2;
    const run_outcome clean = run_dist(fx.e, fx.rc, clean_so);
    ASSERT_EQ(clean.json, fx.local_json);
    EXPECT_EQ(clean.totals.rank_restarts, 0u);
    EXPECT_EQ(clean.totals.reassigned_blocks, 0u);
    rounds = clean.totals.rounds;
  }
  ASSERT_GE(rounds, 3u) << "fixture too small to probe first/middle/last";

  const std::uint32_t probes[3] = {0u, static_cast<std::uint32_t>(rounds / 2),
                                   static_cast<std::uint32_t>(rounds - 1)};
  for (const unsigned ranks : {2u, 4u}) {
    for (unsigned victim = 0; victim < ranks; ++victim) {
      for (const std::uint32_t round : probes) {
        session_options so = fast_recovery_options(ranks);
        so.fault_plan = "kill:rank=" + std::to_string(victim) +
                        ",trial=0,round=" + std::to_string(round);
        const run_outcome got = run_dist(fx.e, fx.rc, so);
        ASSERT_EQ(got.json, fx.local_json)
            << "ranks=" << ranks << " victim=" << victim
            << " round=" << round;
        EXPECT_GE(got.totals.rank_restarts, 1u);
        EXPECT_EQ(got.totals.degraded_ranks, 0u);
        EXPECT_GT(got.totals.recovery_wall_ms, 0.0);
      }
    }
  }
}

TEST(DistFaultMatrix, WedgedRankIsDetectedByDeadlineAndRecovers) {
  const fault_fixture fx;
  session_options so = fast_recovery_options(2);
  so.policy.round_deadline_ms = 200;
  so.fault_plan = "drop:rank=1,trial=0,round=1";
  const run_outcome got = run_dist(fx.e, fx.rc, so);
  EXPECT_EQ(got.json, fx.local_json);
  EXPECT_GE(got.totals.rank_restarts, 1u);
  EXPECT_EQ(got.totals.degraded_ranks, 0u);
}

TEST(DistFaultMatrix, TruncatedResultFrameRecovers) {
  const fault_fixture fx;
  session_options so = fast_recovery_options(2);
  so.fault_plan = "truncate:rank=0,trial=0,round=1";
  const run_outcome got = run_dist(fx.e, fx.rc, so);
  EXPECT_EQ(got.json, fx.local_json);
  EXPECT_GE(got.totals.rank_restarts, 1u);
  EXPECT_EQ(got.totals.degraded_ranks, 0u);
}

TEST(DistFaultMatrix, DelayUnderTheDeadlineIsSurvivableLatency) {
  const fault_fixture fx;
  session_options so = fast_recovery_options(2);
  so.policy.round_deadline_ms = 60'000;
  so.fault_plan = "delay:rank=1,trial=0,round=1,ms=20";
  const run_outcome got = run_dist(fx.e, fx.rc, so);
  EXPECT_EQ(got.json, fx.local_json);
  EXPECT_EQ(got.totals.rank_restarts, 0u);  // latency, not a fault
  EXPECT_EQ(got.totals.degraded_ranks, 0u);
}

TEST(DistFaultMatrix, DelayPastTheDeadlineTriggersRespawn) {
  const fault_fixture fx;
  session_options so = fast_recovery_options(2);
  so.policy.round_deadline_ms = 100;
  so.fault_plan = "delay:rank=1,trial=0,round=1,ms=2000";
  const run_outcome got = run_dist(fx.e, fx.rc, so);
  EXPECT_EQ(got.json, fx.local_json);
  EXPECT_GE(got.totals.rank_restarts, 1u);
}

// --- degradation: reassignment stays byte-identical ------------------------

TEST(DistDegrade, ExhaustedBudgetReassignsBlocksAndStaysIdentical) {
  sim::adhoc_spec spec;
  spec.topology = "layered:depth=6,width=9,edge_prob=0.3";
  spec.protocols = "decay,gst-known";
  const sim::experiment e = sim::make_adhoc_experiment(spec);
  sim::run_config rc;
  rc.trials = 2;  // trial 1 runs on the shrunken fleet end to end
  rc.threads = 1;
  rc.seed = 11;
  const std::string local_json =
      sim::to_json(e, sim::run_experiment(e, rc)).dump(2);

  session_options so = fast_recovery_options(3);
  so.policy.max_respawns = 0;  // first failure degrades immediately
  so.fault_plan = "kill:rank=1,trial=0,round=0";
  const run_outcome got = run_dist(e, rc, so);
  EXPECT_EQ(got.json, local_json);
  EXPECT_EQ(got.totals.rank_restarts, 0u);
  EXPECT_EQ(got.totals.degraded_ranks, 1u);
  // Rank 1 of 3 owned blocks [10, 21) of the 32.
  EXPECT_EQ(got.totals.reassigned_blocks,
            kBlocks * 2 / 3 - kBlocks * 1 / 3);
  EXPECT_EQ(got.totals.trials, 2u);
}

TEST(DistSession, DeadFleetDegradesToLocalExecution) {
  // fork+exec of a binary that does not exist: every child _exits(127)
  // before speaking the protocol, and every respawn does the same. The
  // supervisor must degrade the whole fleet and finish the run locally with
  // byte-identical results — not hang, not throw.
  sim::adhoc_spec spec;
  spec.topology = "layered:depth=4,width=6,edge_prob=0.4";
  spec.protocols = "decay";
  const sim::experiment e = sim::make_adhoc_experiment(spec);
  sim::run_config rc;
  rc.trials = 1;
  rc.threads = 1;
  rc.seed = 42;
  const std::string local_json =
      sim::to_json(e, sim::run_experiment(e, rc)).dump(2);

  session_options so = fast_recovery_options(2);
  so.worker_exec = "/nonexistent/rn-dist-worker";
  so.policy.max_respawns = 1;
  const run_outcome got = run_dist(e, rc, so);
  EXPECT_EQ(got.json, local_json);
  EXPECT_EQ(got.totals.degraded_ranks, 2u);
  EXPECT_EQ(got.totals.reassigned_blocks, kBlocks);
  EXPECT_GE(got.totals.rank_restarts, 2u);
}

}  // namespace
}  // namespace rn::dist
