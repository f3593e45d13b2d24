// Distributed backend: shipped and streamed partitioned views against the
// resident graph's rows, block-walker identity against a serial reference at
// every rank/thread split and topology kind, fork-only session byte-identity
// through the declarative runner at every topology kind, wire-level fuzz of
// the framing error paths and the worker's frame checks, and the fault
// matrix — injected crashes, wedges, truncations, and delays must recover
// (respawn or degrade) with byte-identical results JSON.
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
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/check.h"
#include "core/api.h"
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
#include "radio/network.h"
#include "dist_helpers.h"
#include "sim/adhoc.h"
#include "sim/experiment.h"
#include "sim/json.h"

namespace rn::dist {
namespace {

using test_support::fast_recovery_options;
using test_support::run_dist;
using test_support::run_outcome;
using test_support::send_round;
using test_support::threaded_worker;

constexpr unsigned kBlocks = core::kChannelContractBlocks;

// --- partitioned views ----------------------------------------------------

graph::block_plan plan_of(const graph::graph& g) {
  return graph::compute_block_plan(g, kBlocks);
}

/// Rows of `g` restricted to the listeners in [lo, hi), ascending — what a
/// view of that range must hold.
struct filtered_rows {
  std::vector<std::uint32_t> row_start{0};
  std::vector<node_id> adj;
};

filtered_rows filter_rows(const graph::graph& g, node_id lo, node_id hi) {
  filtered_rows f;
  for (node_id u = 0; u < g.node_count(); ++u) {
    for (const node_id v : g.neighbors(u))
      if (v >= lo && v < hi) f.adj.push_back(v);
    f.row_start.push_back(static_cast<std::uint32_t>(f.adj.size()));
  }
  return f;
}

/// The rank view a worker streams for `opt`'s layered graph.
graph::partitioned_view stream_view(const graph::layered_options& opt,
                                    std::size_t n, unsigned first,
                                    unsigned last) {
  return graph::partitioned_view::from_edge_source(
      n,
      [&](const graph::edge_sink& sink) {
        graph::for_each_layered_edge(
            opt, [&](node_id u, node_id v) { sink(u, v); });
      },
      kBlocks, first, last);
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
    const filtered_rows filtered =
        filter_rows(g, plan.bounds[first], plan.bounds[last]);
    const auto streamed = stream_view(opt, g.node_count(), first, last);
    ASSERT_EQ(streamed.plan().bounds, plan.bounds)
        << "streamed degree pass disagreed with the resident graph";
    EXPECT_EQ(streamed.row_start(), filtered.row_start);
    EXPECT_EQ(streamed.adjacency(), filtered.adj);
    EXPECT_EQ(streamed.owned_begin(), plan.bounds[first]);
    EXPECT_EQ(streamed.owned_end(), plan.bounds[last]);
  }
}

TEST(PartitionedView, ResidentBuildReplaysItsStreamTwiceADerivedViewThrice) {
  graph::layered_options opt;
  opt.depth = 5;
  opt.width = 11;
  opt.edge_prob = 0.3;
  opt.seed = 7;
  const std::size_t n = 1 + opt.depth * opt.width;
  unsigned replays = 0;
  const auto counted = [&](auto&& add) {
    ++replays;
    graph::for_each_layered_edge(opt, add);
  };
  const graph::graph g = graph::graph::from_edges(n, counted);
  EXPECT_EQ(replays, 2u) << "resident build: count, scatter";
  EXPECT_EQ(g.edges(), graph::random_layered(opt).edges());

  replays = 0;
  const auto derived = graph::partitioned_view::from_edge_source(
      n, [&](const graph::edge_sink& sink) { counted(sink); }, kBlocks, 0,
      11);
  EXPECT_EQ(replays, 3u) << "a view that derives its plan: degrees too";
  const graph::block_plan plan = plan_of(g);
  EXPECT_EQ(derived.adjacency(),
            filter_rows(g, plan.bounds[0], plan.bounds[11]).adj);
}

/// The view a rank fills from the rows its setup ships: `filtered`'s row
/// lengths in batches of `batch` rows, then the listeners' full rows of `g`
/// in batches of `batch` listeners.
graph::partitioned_view shipped_view(const graph::graph& g,
                                     const graph::block_plan& plan,
                                     unsigned first, unsigned last,
                                     std::size_t batch) {
  const node_id lo = plan.bounds[first];
  const node_id hi = plan.bounds[last];
  const filtered_rows filtered = filter_rows(g, lo, hi);
  std::vector<std::uint32_t> lengths(g.node_count());
  for (std::size_t u = 0; u < lengths.size(); ++u)
    lengths[u] = filtered.row_start[u + 1] - filtered.row_start[u];
  graph::partitioned_view::filler fill(plan, first, last);
  for (std::size_t u = 0; u < lengths.size(); u += batch) {
    EXPECT_FALSE(fill.lengths_done());
    const std::size_t k = std::min(batch, lengths.size() - u);
    fill.add_lengths(static_cast<node_id>(u), {lengths.data() + u, k});
  }
  EXPECT_TRUE(fill.lengths_done());
  const auto offsets = g.offsets();
  const graph::csr_ref csr = g.csr();
  for (node_id v = lo; v < hi; v += static_cast<node_id>(batch)) {
    EXPECT_FALSE(fill.rows_done());
    const auto end =
        static_cast<node_id>(std::min<std::size_t>(hi, v + batch));
    fill.add_rows(v, offsets.subspan(v, end - v + 1),
                  {csr.adj + offsets[v], offsets[end] - offsets[v]});
  }
  EXPECT_TRUE(fill.rows_done());
  return std::move(fill).finish();
}

TEST(PartitionedView, ShippedRowsFillEqualsFilteredBuild) {
  // A rank's view from its listeners' full rows, shipped one row at a time,
  // seven at a time and all at once, at every rank split, on a layered
  // graph and on a power-law graph whose hubs straddle every rank boundary.
  graph::layered_options opt;
  opt.depth = 7;
  opt.width = 23;
  opt.edge_prob = 0.2;
  opt.intra_prob = 0.1;
  opt.seed = 31;
  graph::topology_spec pl = graph::parse_topology_spec("power_law:n=200");
  pl.seed = 5;
  for (const graph::graph& g :
       {graph::random_layered(opt), graph::build_topology(pl)}) {
    const graph::block_plan plan = plan_of(g);
    for (unsigned ranks = 1; ranks <= 4; ++ranks) {
      for (unsigned r = 0; r < ranks; ++r) {
        const unsigned first = kBlocks * r / ranks;
        const unsigned last = kBlocks * (r + 1) / ranks;
        const filtered_rows filtered =
            filter_rows(g, plan.bounds[first], plan.bounds[last]);
        for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                        g.node_count()}) {
          SCOPED_TRACE("n=" + std::to_string(g.node_count()) + " rank " +
                       std::to_string(r) + " of " + std::to_string(ranks) +
                       " batch " + std::to_string(batch));
          const auto view = shipped_view(g, plan, first, last, batch);
          EXPECT_EQ(view.plan().bounds, plan.bounds);
          EXPECT_EQ(view.row_start(), filtered.row_start);
          EXPECT_EQ(view.adjacency(), filtered.adj);
        }
      }
    }
  }
}

TEST(PartitionedView, ShippedRowsOutOfOrderOrShortAreRejected) {
  graph::layered_options opt;
  opt.depth = 4;
  opt.width = 6;
  opt.edge_prob = 0.5;
  opt.seed = 2;
  const graph::graph g = graph::random_layered(opt);
  const graph::block_plan plan = plan_of(g);
  const auto offsets = g.offsets();
  const node_id lo = plan.bounds[0];
  const node_id hi = plan.bounds[kBlocks];
  std::vector<std::uint32_t> lengths(g.node_count());
  for (node_id u = 0; u < g.node_count(); ++u)
    lengths[u] = offsets[u + 1] - offsets[u];
  const auto rows = [&](node_id v, node_id end) {
    return std::pair{offsets.subspan(v, end - v + 1),
                     std::span<const node_id>(g.csr().adj + offsets[v],
                                              offsets[end] - offsets[v])};
  };
  {
    graph::partitioned_view::filler fill(plan, 0, kBlocks);
    EXPECT_THROW(fill.add_lengths(1, {lengths.data() + 1, 2}), contract_error);
    const auto [o, a] = rows(lo, hi);
    EXPECT_THROW(fill.add_rows(lo, o, a), contract_error)
        << "rows before every length";
  }
  {
    graph::partitioned_view::filler fill(plan, 0, kBlocks);
    fill.add_lengths(0, lengths);
    const auto [o, a] = rows(lo + 1, hi);
    EXPECT_THROW(fill.add_rows(lo + 1, o, a), contract_error)
        << "a listener skipped";
  }
  {
    graph::partitioned_view::filler fill(plan, 0, kBlocks);
    lengths[3] += 1;  // a row promised one entry more than ships
    fill.add_lengths(0, lengths);
    const auto [o, a] = rows(lo, hi);
    fill.add_rows(lo, o, a);
    EXPECT_THROW((void)std::move(fill).finish(), contract_error);
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

/// A rank's walker over blocks [first, last), loaded as a worker loads it —
/// `csr` for a team of `members` — whose team takes every non-empty round.
walker_ptr load_rank(const graph::block_plan& plan, unsigned first,
                     unsigned last, graph::csr_ref csr, unsigned members) {
  auto w = std::make_unique<radio::block_walker>();
  w->bind(plan.bounds, first, last);
  w->set_min_parallel_volume(0);
  w->load(csr, members);
  EXPECT_EQ(w->team_size(), std::min(members, last - first));
  return w;
}

/// `ranks` ranks splitting the plan as a session does, each loaded with the
/// resident graph: the walker clips its rows to the rank's blocks.
std::vector<walker_ptr> resident_ranks(const graph::graph& g,
                                       const graph::block_plan& plan,
                                       unsigned ranks, unsigned members) {
  std::vector<walker_ptr> out;
  out.reserve(ranks);
  for (unsigned rk = 0; rk < ranks; ++rk)
    out.push_back(load_rank(plan, kBlocks * rk / ranks,
                            kBlocks * (rk + 1) / ranks, g.csr(), members));
  return out;
}

/// Walks `txs` on every rank and asserts each owned block's touch list and
/// hit words equal the serial reference; clears the round state.
void expect_ranks_match(const std::vector<walker_ptr>& ranks,
                        const reference_walk& ref,
                        std::span<const node_id> txs) {
  for (std::size_t rk = 0; rk < ranks.size(); ++rk) {
    radio::block_walker& w = *ranks[rk];
    w.walk(txs);
    for (unsigned b = w.first_block(); b < w.last_block(); ++b) {
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
    rounds.emplace_back(ids.begin(), ids.begin() + std::min(m, n));
  }
  for (auto& txs : rounds) std::shuffle(txs.begin(), txs.end(), r);
  return rounds;
}

TEST(BlockWalker, MatchesSerialReferenceAtEveryRankAndThreadSplit) {
  // The resident graph, which the walker clips to the rank's blocks (the
  // coordinator's local cover), and the view a rank fills from its shipped
  // rows, walked in place by a team of one.
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
      views.push_back(shipped_view(g, plan, kBlocks * rk / ranks,
                                   kBlocks * (rk + 1) / ranks, 64));
    for (const unsigned threads : {1u, 2u, 3u, 5u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " threads=" + std::to_string(threads));
      const std::vector<walker_ptr> resident =
          resident_ranks(g, plan, ranks, threads);
      std::vector<walker_ptr> shipped;
      for (const auto& v : views)
        shipped.push_back(load_rank(v.plan(), v.first_block(),
                                    v.last_block(), v.csr(), threads));
      for (const auto& txs : test_rounds(g.node_count(), r)) {
        const reference_walk ref = serial_reference(g, plan, txs);
        expect_ranks_match(resident, ref, txs);
        expect_ranks_match(shipped, ref, txs);
      }
    }
  }
}

/// The receptions a network must deliver for `ref`: blocks in ascending
/// order, each in first-touch order, transmitters skipped; one transmitter
/// is a message from it, more a collision (the CD model).
std::vector<std::pair<node_id, node_id>> expected_receptions(
    const reference_walk& ref, std::span<const node_id> txs) {
  std::vector<std::pair<node_id, node_id>> out;
  for (const auto& block : ref.touched)
    for (const node_id v : block) {
      if (std::find(txs.begin(), txs.end(), v) != txs.end()) continue;
      const std::uint64_t hs = ref.words[v];
      out.emplace_back(v, (hs >> 32) == 1 ? txs[hs & 0xffffffffU] : no_node);
    }
  return out;
}

TEST(BlockWalker, EveryTopologyKindMatchesSerialReference) {
  // Every registered kind at its registry defaults: the resident graph fed
  // to rank walkers at rank splits 1 and 3 and teams 1, 2 and 4, and a
  // team-one network walking the graph's own CSR.
  const auto kinds = graph::topology_registry::instance().kinds();
  ASSERT_EQ(kinds.size(), 13u);
  for (const std::string& kind : kinds) {
    SCOPED_TRACE(kind);
    graph::topology_spec spec;
    spec.kind = kind;
    const graph::graph g = graph::build_topology(spec);
    const graph::block_plan plan = plan_of(g);
    std::mt19937_64 r(29);
    const auto rounds = test_rounds(g.node_count(), r);
    for (const unsigned ranks : {1u, 3u}) {
      for (const unsigned members : {1u, 2u, 4u}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                     " members=" + std::to_string(members));
        const std::vector<walker_ptr> walkers =
            resident_ranks(g, plan, ranks, members);
        for (const auto& txs : rounds)
          expect_ranks_match(walkers, serial_reference(g, plan, txs), txs);
      }
    }
    radio::network net(g, {.collision_detection = true});
    ASSERT_EQ(net.intra_trial_threads(), 1u);
    const radio::packet pkt = radio::packet::make_noise();
    radio::round_buffer buf;
    for (const auto& txs : rounds) {
      buf.clear();
      for (const node_id v : txs) buf.add(v, pkt);
      std::vector<std::pair<node_id, node_id>> got;
      net.step(buf, [&](const radio::reception& rx) {
        got.emplace_back(rx.listener, rx.from);
      });
      EXPECT_EQ(got, expected_receptions(serial_reference(g, plan, txs), txs));
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
    std::vector<walker_ptr> ranks;
    for (unsigned b = 0; b < kBlocks; b += width) {
      ranks.push_back(load_rank(plan, b, b + width, g.csr(), 3));
      EXPECT_EQ(ranks.back()->team_size(), width);
    }
    std::mt19937_64 r(17);
    for (const auto& txs : test_rounds(g.node_count(), r))
      expect_ranks_match(ranks, serial_reference(g, plan, txs), txs);
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
  std::vector<walker_ptr> ranks;
  ranks.push_back(load_rank(plan, 3, 20, g.csr(), 3));
  ASSERT_EQ(ranks[0]->team_size(), 3u);
  ranks[0]->set_min_parallel_volume(
      std::numeric_limits<std::size_t>::max());
  const std::int64_t parallel =
      radio::block_walker::process_totals().parallel_rounds;
  std::mt19937_64 r(23);
  for (const auto& txs : test_rounds(g.node_count(), r))
    expect_ranks_match(ranks, serial_reference(g, plan, txs), txs);
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
    expect_ranks_match(resident_ranks(g, plan, ranks, 4), ref, txs);
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

TEST(DistSession, EveryTopologyKindIsByteIdenticalToLocal) {
  // Every kind takes the one shipped-rows path. Registry defaults are small
  // enough that a 3-rank split leaves some blocks with no listener.
  session_options so;
  so.ranks = 3;
  session s(so);
  const auto kinds = graph::topology_registry::instance().kinds();
  ASSERT_EQ(kinds.size(), 13u);
  for (const std::string& kind : kinds) {
    SCOPED_TRACE(kind);
    sim::adhoc_spec spec;
    spec.topology = kind;
    spec.protocols = "decay,gst-known";
    const sim::experiment e = sim::make_adhoc_experiment(spec);
    sim::run_config rc;
    rc.trials = 2;
    rc.threads = 1;
    rc.seed = 3;
    const std::string local_json =
        sim::to_json(e, sim::run_experiment(e, rc)).dump(2);
    s.install();
    const sim::experiment_result dist = sim::run_experiment(e, rc);
    s.uninstall();
    EXPECT_EQ(sim::to_json(e, dist).dump(2), local_json);
  }
  EXPECT_EQ(s.totals().rank_restarts, 0u);
}

/// Runs gst-known on `g` with the session armed for it by `spec`, and
/// expects the local run's results.
void expect_session_run_matches_local(session& s,
                                      const graph::topology_spec& spec,
                                      const graph::graph& g) {
  core::options opt;
  opt.seed = 5;
  const core::broadcast_workload w{0, 1};
  const auto local = core::run_broadcast(g, "gst-known", w, opt);
  s.trial_begin(spec, g);
  const auto dist = core::run_broadcast(g, "gst-known", w, opt);
  s.trial_end(g);
  EXPECT_EQ(dist.base.rounds_to_complete, local.base.rounds_to_complete);
  EXPECT_EQ(dist.base.transmissions, local.base.transmissions);
  EXPECT_EQ(dist.base.deliveries, local.base.deliveries);
  EXPECT_EQ(dist.base.energy, local.base.energy);
}

TEST(DistSession, RanksRunOnTheGraphsRowsWhateverTheSpecSays) {
  // Ranks fill from the rows the coordinator ships, never from the spec:
  // the spec at another seed names another graph of the same size, and the
  // trial must still run on `g` itself, on layered and power_law alike.
  session_options so;
  so.ranks = 2;
  session s(so);
  for (const char* text :
       {"layered:depth=6,width=9,edge_prob=0.3", "power_law:n=64"}) {
    SCOPED_TRACE(text);
    graph::topology_spec spec = graph::parse_topology_spec(text);
    spec.seed = 11;
    const graph::graph g = graph::build_topology(spec);
    spec.seed = 12;
    const graph::graph other = graph::build_topology(spec);
    ASSERT_EQ(other.node_count(), g.node_count());
    ASSERT_NE(other.edges(), g.edges());
    expect_session_run_matches_local(s, spec, g);
  }
  EXPECT_EQ(s.totals().trials, 2u);
  EXPECT_EQ(s.totals().rank_restarts, 0u);
}

TEST(DistSession, BackToBackTrialsWithNoRoundsRespawnNoRank) {
  // A trial that ships no round reads its ranks' readies at trial_end, so
  // the next setup finds every channel in step: no rank is taken for dead,
  // and a trial with rounds still matches the local run.
  session_options so;
  so.ranks = 3;
  session s(so);
  graph::topology_spec spec =
      graph::parse_topology_spec("layered:depth=6,width=9,edge_prob=0.3");
  spec.seed = 11;
  const graph::graph g = graph::build_topology(spec);
  s.trial_begin(spec, g);
  s.trial_end(g);
  s.trial_begin(spec, g);
  s.trial_end(g);
  expect_session_run_matches_local(s, spec, g);
  EXPECT_EQ(s.totals().rank_restarts, 0u);
  EXPECT_EQ(s.totals().trials, 3u);
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

TEST(WireFuzz, PayloadAboveTheCapIsRefusedBeforeSending) {
  // The cap binds the sending end too: a payload its length prefix could
  // not frame for the peer must throw before a byte goes out, or the peer
  // would read the stream out of step with the frames.
  auto [a, b] = make_channel_pair();
  a.set_max_frame_bytes(16);
  const std::vector<std::uint8_t> fits(16, 7);
  const std::vector<std::uint8_t> over(17, 7);
  try {
    const wire_part frame{over.data(), over.size()};
    a.send(msg_type::round_results, {&frame, 1});
    FAIL() << "send accepted a payload above the cap";
  } catch (const wire_error& e) {
    EXPECT_EQ(e.kind(), wire_errc::corrupt);
  }
  EXPECT_EQ(a.bytes_sent(), 0u);
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(b.fd(), &byte, 1, MSG_PEEK | MSG_DONTWAIT), -1)
      << "the refused frame left bytes on the wire";
  const wire_part frame{fits.data(), fits.size()};
  a.send(msg_type::round_results, {&frame, 1});
  b.set_deadline_ms(2000);
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(b.recv(payload), msg_type::round_results);
  EXPECT_EQ(payload, fits);
}

TEST(WireFuzz, EmptyRawPayloadRoundTrips) {
  // A frame part with no bytes (an empty block's ids) may carry a null
  // pointer, an empty vector's data(), and the frame must still round-trip.
  const std::vector<node_id> none;
  const std::uint32_t head[2] = {3, 0};
  const std::uint32_t tail = 7;
  const wire_part frame[3] = {
      {head, sizeof(head)}, {none.data(), 0}, {&tail, sizeof(tail)}};
  auto [a, b] = make_channel_pair();
  a.send(msg_type::round_results, frame);
  b.set_deadline_ms(2000);
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(b.recv(payload), msg_type::round_results);
  ASSERT_EQ(payload.size(), 12u);
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
  const wire_part frame{w.bytes.data(), w.bytes.size()};
  a.send_truncated(msg_type::round_results, {&frame, 1}, w.bytes.size() / 2);
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

// --- a worker on a bare channel --------------------------------------------

TEST(DistWorker, RoundCountBeyondThePayloadIsAProtocolError) {
  // The worker reads the transmitter ids where they lie only once the
  // payload is known to hold as many as the frame claims: a count of 2^20
  // over one 4-byte id ends the worker with status 1, allocating nothing.
  graph::topology_spec spec =
      graph::parse_topology_spec("layered:depth=6,width=9,edge_prob=0.3");
  spec.seed = 11;
  const graph::graph g = graph::build_topology(spec);
  threaded_worker w(g, plan_of(g), 0, kBlocks, 1);
  std::vector<std::uint8_t> payload;
  send_round(w.ch, 1, {0});
  ASSERT_EQ(w.ch.recv(payload), msg_type::round_results)
      << "a well-formed round must be answered";
  send_round(w.ch, 1u << 20, {0});
  w.ch.set_deadline_ms(10'000);
  try {
    (void)w.ch.recv(payload);
    ADD_FAILURE() << "the worker answered a round that overstates its count";
  } catch (const wire_error& e) {
    EXPECT_EQ(e.kind(), wire_errc::closed);
  }
  EXPECT_EQ(w.join(), 1);
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
  // 2^32 - 1 is the largest value that parses.
  fault_plan widest = fault_plan::parse("kill:rank=4294967295,trial=0,round=0");
  const fault_spec* w = widest.take(4294967295u, 0, 0);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->rank, 4294967295u);
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
  // Numbers are whole unsigned decimals below 2^32: no sign, no suffix, no
  // wrap, not empty.
  for (const char* bad :
       {"kill:rank=-1,trial=0,round=0", "kill:rank=4294967296,trial=0,round=0",
        "kill:rank=0,trial=0,round=1x", "kill:rank=0,trial=,round=0"})
    EXPECT_THROW((void)fault_plan::parse(bad), contract_error) << bad;
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

TEST(DistFaultMatrix, DelayedFirstRoundPastTheDeadlineTriggersRespawn) {
  // The first round's wait for the rank's fill runs under the setup
  // deadline, but its results still wait under the round deadline.
  const fault_fixture fx;
  session_options so = fast_recovery_options(2);
  so.policy.round_deadline_ms = 100;
  so.fault_plan = "delay:rank=1,trial=0,round=0,ms=2000";
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
