// Distributed backend: streamed partitioned views against the resident
// graph's rows, block-walker identity against a serial reference at every
// rank/thread split and topology kind, fork-only session byte-identity
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

TEST(PartitionedView, PlanFilledViewEqualsDerivedViewAtEveryRankSplit) {
  graph::layered_options opt;
  opt.depth = 7;
  opt.width = 23;
  opt.edge_prob = 0.2;
  opt.intra_prob = 0.1;
  opt.seed = 31;
  const graph::graph g = graph::random_layered(opt);
  const graph::block_plan plan = plan_of(g);
  for (unsigned ranks = 1; ranks <= 4; ++ranks) {
    for (unsigned r = 0; r < ranks; ++r) {
      SCOPED_TRACE(std::to_string(r) + " of " + std::to_string(ranks));
      const unsigned first = kBlocks * r / ranks;
      const unsigned last = kBlocks * (r + 1) / ranks;
      const auto derived = stream_view(opt, g.node_count(), first, last);
      const auto shipped = graph::partitioned_view::from_plan(
          g.node_count(), plan, first, last,
          [&](auto&& add) { graph::for_each_layered_edge(opt, add); });
      EXPECT_EQ(shipped.plan().bounds, derived.plan().bounds);
      EXPECT_EQ(shipped.owned_begin(), derived.owned_begin());
      EXPECT_EQ(shipped.owned_end(), derived.owned_end());
      EXPECT_EQ(shipped.row_start(), derived.row_start());
      EXPECT_EQ(shipped.adjacency(), derived.adjacency());
    }
  }
}

TEST(PartitionedView, ResidentBuildAndRankViewReplayTheirStreamTwice) {
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
  const auto view =
      graph::partitioned_view::from_plan(n, plan_of(g), 0, 11, counted);
  EXPECT_EQ(replays, 2u) << "rank view from a shipped plan: count, scatter";

  replays = 0;
  const auto derived = graph::partitioned_view::from_edge_source(
      n, [&](const graph::edge_sink& sink) { counted(sink); }, kBlocks, 0,
      11);
  EXPECT_EQ(replays, 3u) << "a view that derives its plan: degrees too";
  EXPECT_EQ(view.adjacency(), derived.adjacency());
}

TEST(PartitionedView, CountPassTotalIsTheOwnedEntryCount) {
  // A rank acks its owned entry count between from_plan's count and scatter
  // replays, before any row is deduplicated. The layered stream never
  // repeats an edge (the guaranteed parent is left out of the Bernoulli
  // draws), so that count must already be the view's final size and the
  // degree sum the coordinator checks from its own graph.
  struct shape {
    std::size_t depth, width;
    double edge_prob, intra_prob;
  };
  for (const shape sh : {shape{7, 23, 0.2, 0.0}, shape{6, 9, 1.0, 0.0},
                         shape{5, 17, 0.3, 0.25}, shape{4, 12, 1.0, 0.5}}) {
    for (const std::uint64_t seed : {1u, 31u, 977u}) {
      graph::layered_options opt;
      opt.depth = sh.depth;
      opt.width = sh.width;
      opt.edge_prob = sh.edge_prob;
      opt.intra_prob = sh.intra_prob;
      opt.seed = seed;
      const graph::graph g = graph::random_layered(opt);
      const graph::block_plan plan = plan_of(g);
      const auto offsets = g.offsets();
      for (unsigned ranks = 1; ranks <= 4; ++ranks) {
        for (unsigned r = 0; r < ranks; ++r) {
          SCOPED_TRACE("depth=" + std::to_string(sh.depth) +
                       " edge_prob=" + std::to_string(sh.edge_prob) +
                       " intra_prob=" + std::to_string(sh.intra_prob) +
                       " seed=" + std::to_string(seed) + " rank " +
                       std::to_string(r) + " of " + std::to_string(ranks));
          const unsigned first = kBlocks * r / ranks;
          const unsigned last = kBlocks * (r + 1) / ranks;
          unsigned replays = 0;
          unsigned calls = 0;
          std::uint64_t total = 0;
          const auto view = graph::partitioned_view::from_plan(
              g.node_count(), plan, first, last,
              [&](auto&& add) {
                ++replays;
                graph::for_each_layered_edge(opt, add);
              },
              [&](std::uint64_t counted) {
                EXPECT_EQ(replays, 1u) << "counted before the scatter";
                ++calls;
                total = counted;
              });
          EXPECT_EQ(calls, 1u);
          EXPECT_EQ(total, view.adjacency().size());
          EXPECT_EQ(total, std::uint64_t{offsets[plan.bounds[last]]} -
                               offsets[plan.bounds[first]]);
        }
      }
    }
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
  // Both ways a rank gets its rows: the resident graph, which the walker
  // clips to the rank's blocks, and a streamed view, walked in place by a
  // team of one.
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
      views.push_back(stream_view(opt, g.node_count(), kBlocks * rk / ranks,
                                  kBlocks * (rk + 1) / ranks));
    for (const unsigned threads : {1u, 2u, 3u, 5u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " threads=" + std::to_string(threads));
      const std::vector<walker_ptr> resident =
          resident_ranks(g, plan, ranks, threads);
      std::vector<walker_ptr> streamed;
      for (const auto& v : views)
        streamed.push_back(load_rank(v.plan(), v.first_block(),
                                     v.last_block(), v.csr(), threads));
      for (const auto& txs : test_rounds(g.node_count(), r)) {
        const reference_walk ref = serial_reference(g, plan, txs);
        expect_ranks_match(resident, ref, txs);
        expect_ranks_match(streamed, ref, txs);
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

TEST(DistSession, RankReplayingAnotherGraphIsAContractError) {
  // The spec at another seed replays to another graph with the same node
  // count; the ranks' owned entry counts must give it away, on the
  // streamed-view path (layered) and the resident path (power_law) alike.
  // One session serves both: a failed setup reads every rank's ack.
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
    ASSERT_EQ(graph::build_topology(spec).node_count(), g.node_count());
    EXPECT_THROW(s.trial_begin(spec, g), contract_error);
  }
}

TEST(DistSession, FailedSetupLeavesTheSessionUsable) {
  // Every rank's ack of the mismatched setup must be read before the
  // contract error escapes; a stale ack would fail the next trial_begin.
  session_options so;
  so.ranks = 3;
  session s(so);
  graph::topology_spec spec =
      graph::parse_topology_spec("layered:depth=6,width=9,edge_prob=0.3");
  spec.seed = 11;
  const graph::graph g = graph::build_topology(spec);
  graph::topology_spec other = spec;
  other.seed = 12;
  EXPECT_THROW(s.trial_begin(other, g), contract_error);

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
  EXPECT_EQ(s.totals().trials, 1u);
}

TEST(DistSession, SetupAfterAMismatchRespawnsNoRank) {
  // A mismatched setup throws once every ack is read, while each rank still
  // fills and owes its setup_ready. The next setup must read that ready
  // first, not take it for its own ack and respawn the rank; a trial that
  // ships no round reads its ranks' readies at trial_end.
  session_options so;
  so.ranks = 3;
  session s(so);
  graph::topology_spec spec =
      graph::parse_topology_spec("layered:depth=6,width=9,edge_prob=0.3");
  spec.seed = 11;
  const graph::graph g = graph::build_topology(spec);
  graph::topology_spec other = spec;
  other.seed = 12;
  EXPECT_THROW(s.trial_begin(other, g), contract_error);
  s.trial_begin(spec, g);
  s.trial_end(g);
  s.trial_begin(spec, g);
  s.trial_end(g);
  EXPECT_EQ(s.totals().rank_restarts, 0u);
  EXPECT_EQ(s.totals().trials, 2u);
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

TEST(DistFaultMatrix, RankFillLongerThanTheRoundDeadlineIsNotAWedge) {
  // A rank acks once it has counted its entries, and trial_begin returns
  // then; the rest of its fill may still run when its first round is due.
  // The coordinator waits for it under the setup deadline, so a fill five
  // times the round deadline is latency, not a wedge. The deadline is a
  // fifth of a timed fill of rank 0's view, the fill a worker runs; decay's
  // rounds each walk a rank's rows at most once, far under that. Two ranks
  // of the 150k spec keep that deadline near 40 ms, clear of a loaded
  // host's scheduling delays.
  const char* topology = "layered:depth=50,width=3000,edge_prob=0.0066";
  constexpr unsigned ranks = 2;
  sim::adhoc_spec spec;
  spec.topology = topology;
  spec.protocols = "decay";
  const sim::experiment e = sim::make_adhoc_experiment(spec);
  sim::run_config rc;
  rc.trials = 1;
  rc.threads = 1;  // single-threaded driver: fork-only respawn is safe
  rc.seed = 11;

  double fill_ms = 0.0;
  {
    graph::topology_spec ts = graph::parse_topology_spec(topology);
    ts.seed = rc.seed;  // the fill's cost depends on the shape, not the seed
    const graph::graph g = graph::build_topology(ts);
    const graph::layered_options lo = graph::layered_options_of(ts);
    const auto t0 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) sets the test's round deadline from a rank fill's duration (test-only timing)
    const auto view = graph::partitioned_view::from_plan(
        g.node_count(), plan_of(g), 0, kBlocks / ranks,
        [&lo](auto&& add) { graph::for_each_layered_edge(lo, add); });
    fill_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)  // rn-lint: allow(R1) sets the test's round deadline from a rank fill's duration (test-only timing)
                  .count();
    ASSERT_FALSE(view.adjacency().empty());
  }
  const std::string local_json =
      sim::to_json(e, sim::run_experiment(e, rc)).dump(2);

  session_options so = fast_recovery_options(ranks);
  so.policy.round_deadline_ms = std::max(1u, unsigned(fill_ms / 5));
  SCOPED_TRACE("rank fill " + std::to_string(fill_ms) +
               " ms, round deadline " +
               std::to_string(so.policy.round_deadline_ms) + " ms");
  const run_outcome got = run_dist(e, rc, so);
  EXPECT_EQ(got.json, local_json);
  EXPECT_EQ(got.totals.rank_restarts, 0u);
  EXPECT_EQ(got.totals.degraded_ranks, 0u);
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
