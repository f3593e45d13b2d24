// Fast-forward equivalence: every protocol runner must produce bit-identical
// results whether idle rounds are stepped on the channel or skipped via
// network::advance. The naive mode is the oracle; these tests run each
// pipeline both ways and compare network statistics, per-node energy vectors,
// protocol outputs and round counts.
#include <gtest/gtest.h>

#include "baseline/decay.h"
#include "coding/rlnc.h"
#include "core/api.h"
#include "core/assignment.h"
#include "core/gst_distributed.h"
#include "core/multi_broadcast.h"
#include "core/recruiting.h"
#include "core/single_broadcast.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "radio/network.h"

namespace rn {
namespace {

graph::graph layered(std::size_t depth, std::size_t width, std::uint64_t seed) {
  graph::layered_options lo;
  lo.depth = depth;
  lo.width = width;
  lo.edge_prob = 0.4;
  lo.seed = seed;
  return graph::random_layered(lo);
}

void expect_same_result(const radio::broadcast_result& naive,
                        const radio::broadcast_result& ff) {
  EXPECT_EQ(naive.completed, ff.completed);
  EXPECT_EQ(naive.rounds_to_complete, ff.rounds_to_complete);
  EXPECT_EQ(naive.rounds_executed, ff.rounds_executed);
  EXPECT_EQ(naive.transmissions, ff.transmissions);
  EXPECT_EQ(naive.deliveries, ff.deliveries);
  EXPECT_EQ(naive.collisions_observed, ff.collisions_observed);
  EXPECT_EQ(naive.energy, ff.energy);  // per-node transmission counts
  ASSERT_EQ(naive.phase_rounds.size(), ff.phase_rounds.size());
  for (std::size_t i = 0; i < naive.phase_rounds.size(); ++i) {
    EXPECT_STREQ(naive.phase_rounds[i].first, ff.phase_rounds[i].first);
    EXPECT_EQ(naive.phase_rounds[i].second, ff.phase_rounds[i].second);
  }
}

TEST(FastForward, Theorem11PipelineBitIdentical) {
  // E1-style single-message broadcast at small n: the full unknown-topology
  // pipeline (wave, construction, labeling, ring relay + handoffs).
  const auto g = layered(8, 5, 11);
  core::options opt;
  opt.seed = 21;
  opt.prm = core::params::fast();
  opt.fast_forward = false;
  const auto naive = core::run_unknown_cd_single_broadcast(g, 0, opt);
  opt.fast_forward = true;
  const auto ff = core::run_unknown_cd_single_broadcast(g, 0, opt);
  expect_same_result(naive, ff);
  EXPECT_FALSE(naive.energy.empty());
}

TEST(FastForward, Theorem11MultiRingBitIdentical) {
  const auto g = layered(12, 4, 5);
  core::options opt;
  opt.seed = 3;
  opt.prm = core::params::fast();
  opt.prm.ring_divisor = 3.0;  // several rings => handoff blocks exercised
  opt.fast_forward = false;
  const auto naive = core::run_unknown_cd_single_broadcast(g, 0, opt);
  opt.fast_forward = true;
  const auto ff = core::run_unknown_cd_single_broadcast(g, 0, opt);
  expect_same_result(naive, ff);
}

TEST(FastForward, KnownGstBroadcastBitIdentical) {
  const auto g = layered(10, 5, 7);
  core::options opt;
  opt.seed = 9;
  opt.prm = core::params::fast();
  opt.fast_forward = false;
  const auto naive = core::run_known_single_broadcast(g, 0, opt);
  opt.fast_forward = true;
  const auto ff = core::run_known_single_broadcast(g, 0, opt);
  expect_same_result(naive, ff);
}

TEST(FastForward, DistributedGstConstructionBitIdentical) {
  for (const bool pipelined : {true, false}) {
    const auto g = layered(6, 4, 13);
    core::options opt;
    opt.seed = 17;
    opt.prm = core::params::fast();
    opt.fast_forward = false;
    const auto naive = core::build_gst_distributed_single(g, 0, opt, pipelined);
    opt.fast_forward = true;
    const auto ff = core::build_gst_distributed_single(g, 0, opt, pipelined);
    EXPECT_EQ(naive.rounds, ff.rounds);
    EXPECT_EQ(naive.transmissions, ff.transmissions);
    EXPECT_EQ(naive.fallback_finalizations, ff.fallback_finalizations);
    EXPECT_EQ(naive.fallback_adoptions, ff.fallback_adoptions);
    EXPECT_EQ(naive.parent_rank, ff.parent_rank);
    EXPECT_EQ(naive.stretch_child, ff.stretch_child);
    ASSERT_EQ(naive.forests.size(), ff.forests.size());
    for (std::size_t j = 0; j < naive.forests.size(); ++j) {
      EXPECT_EQ(naive.forests[j].parent, ff.forests[j].parent);
      EXPECT_EQ(naive.forests[j].rank, ff.forests[j].rank);
      EXPECT_EQ(naive.forests[j].level, ff.forests[j].level);
      EXPECT_EQ(naive.forests[j].member, ff.forests[j].member);
    }
  }
}

TEST(FastForward, MultiMessageBroadcastBitIdentical) {
  const auto g = layered(5, 4, 23);
  const auto msgs = coding::make_test_messages(4, 8, 31);
  core::options opt;
  opt.seed = 41;
  opt.prm = core::params::fast();
  opt.payload_size = 8;
  opt.fast_forward = false;
  const auto naive = core::run_unknown_cd_multi_broadcast(g, 0, msgs, opt);
  opt.fast_forward = true;
  const auto ff = core::run_unknown_cd_multi_broadcast(g, 0, msgs, opt);
  expect_same_result(naive.base, ff.base);
  EXPECT_EQ(naive.payloads_verified, ff.payloads_verified);
}

TEST(FastForward, AssignmentProblemBitIdentical) {
  // Bipartite layered instance, as in experiment E7.
  const std::size_t half = 12;
  graph::graph::builder gb(2 * half);
  rng r(77);
  for (node_id red = 0; red < half; ++red)
    for (node_id blue = 0; blue < half; ++blue)
      if (r.bernoulli(0.3))
        gb.add_edge(red, static_cast<node_id>(half + blue));
  const auto g = std::move(gb).build();
  std::vector<node_id> reds, blues;
  for (node_id red = 0; red < half; ++red) reds.push_back(red);
  for (node_id blue = 0; blue < half; ++blue)
    if (g.degree(static_cast<node_id>(half + blue)) > 0)
      blues.push_back(static_cast<node_id>(half + blue));
  const int L = 4;
  const auto naive = core::run_assignment(g, reds, blues, 1, L, 2 * L, 3 * L,
                                          4 * L * L, L, 5, false);
  const auto ff = core::run_assignment(g, reds, blues, 1, L, 2 * L, 3 * L,
                                       4 * L * L, L, 5, true);
  EXPECT_EQ(naive.rounds, ff.rounds);
  EXPECT_EQ(naive.all_assigned, ff.all_assigned);
  EXPECT_EQ(naive.fallback_finalizations, ff.fallback_finalizations);
  EXPECT_EQ(naive.fallback_adoptions, ff.fallback_adoptions);
  EXPECT_EQ(naive.epoch_active_reds, ff.epoch_active_reds);
  EXPECT_EQ(naive.st.parent, ff.st.parent);
  EXPECT_EQ(naive.st.rank, ff.st.rank);
  EXPECT_EQ(naive.st.stretch_child, ff.st.stretch_child);
}

TEST(FastForward, RecruitingBitIdentical) {
  const std::size_t half = 10;
  graph::graph::builder gb(2 * half);
  rng r(3);
  for (node_id red = 0; red < half; ++red)
    for (node_id blue = 0; blue < half; ++blue)
      if (r.bernoulli(0.25))
        gb.add_edge(red, static_cast<node_id>(half + blue));
  const auto g = std::move(gb).build();
  std::vector<node_id> reds, blues;
  for (node_id red = 0; red < half; ++red) reds.push_back(red);
  for (node_id blue = 0; blue < half; ++blue)
    blues.push_back(static_cast<node_id>(half + blue));
  const auto naive = core::run_recruiting(g, reds, blues, 4, 24, 4, 9, false);
  const auto ff = core::run_recruiting(g, reds, blues, 4, 24, 4, 9, true);
  EXPECT_EQ(naive.rounds, ff.rounds);
  EXPECT_EQ(naive.transmissions, ff.transmissions);
  EXPECT_EQ(naive.recruited, ff.recruited);
  EXPECT_EQ(naive.properties_ok, ff.properties_ok);

  // Two reds whose round-0 exponent climbs to 2^-6 rarely beacon: one quiet
  // window spans several iterations in which no red beacons.
  const int L = 6;
  const std::vector<node_id> two_reds{0, 1};
  core::recruiting_instance::config cfg;
  cfg.g = &g;
  cfg.reds = two_reds;
  cfg.blues = blues;
  cfg.L = L;
  cfg.iterations = 60;
  cfg.exp_step = 2;
  cfg.seed = 12;
  core::recruiting_instance inst(cfg);
  radio::network net(g, {.collision_detection = false});
  radio::round_buffer txs;
  round_t widest = 0;
  while (!inst.finished()) {
    const round_t q = inst.quiet_rounds();
    widest = std::max(widest, q);
    if (q > 0) {
      inst.skip_rounds(q);
      continue;
    }
    txs.clear();
    inst.plan(txs);
    net.step(txs, [&](const radio::reception& rx) { inst.on_reception(rx); });
    inst.end_round();
  }
  EXPECT_GT(widest, L + 5);
  const auto sparse_naive =
      core::run_recruiting(g, two_reds, blues, L, 60, 2, 12, false);
  const auto sparse_ff =
      core::run_recruiting(g, two_reds, blues, L, 60, 2, 12, true);
  EXPECT_EQ(sparse_naive.rounds, sparse_ff.rounds);
  EXPECT_EQ(sparse_naive.transmissions, sparse_ff.transmissions);
  EXPECT_EQ(sparse_naive.recruited, sparse_ff.recruited);
  EXPECT_EQ(sparse_naive.properties_ok, sparse_ff.properties_ok);
  EXPECT_GT(sparse_naive.transmissions, 0);
}

TEST(FastForward, RecruitingWithoutRedsIsFullyQuiet) {
  const auto g = layered(2, 3, 1);
  core::recruiting_instance::config cfg;
  cfg.g = &g;
  cfg.blues = {1, 2, 3};
  cfg.L = 3;
  cfg.iterations = 5;
  cfg.exp_step = 2;
  cfg.seed = 4;
  core::recruiting_instance inst(std::move(cfg));
  EXPECT_EQ(inst.quiet_rounds(), inst.rounds_required());
  inst.skip_rounds(inst.quiet_rounds());
  EXPECT_TRUE(inst.finished());
}

// advance() must leave the erasure RNG untouched: after skipping k idle
// rounds, the channel behaves exactly as if those rounds had been stepped
// with an empty transmitter list.
TEST(FastForward, AdvanceKeepsErasureRngAligned) {
  const auto g = layered(1, 6, 2);  // source + one dense layer
  const radio::model m{.collision_detection = true,
                       .erasure_prob = 0.5,
                       .erasure_seed = 1234};
  const radio::round_buffer quiet;
  const radio::packet b0 = radio::packet::make_beacon(0);
  radio::round_buffer busy;
  busy.add(0, b0);
  const auto drop = [](const radio::reception&) {};

  for (const round_t idle : {0, 1, 7, 1000, 1 << 20}) {
    radio::network stepped(g, m);
    radio::network jumped(g, m);
    for (round_t i = 0; i < idle; ++i) stepped.step(quiet, drop);
    jumped.advance(idle);
    EXPECT_EQ(stepped.now(), jumped.now());
    // Several busy rounds afterwards must erase identically.
    for (int i = 0; i < 32; ++i) {
      stepped.step(busy, drop);
      jumped.step(busy, drop);
    }
    EXPECT_EQ(stepped.stats().erasures, jumped.stats().erasures);
    EXPECT_EQ(stepped.stats().deliveries, jumped.stats().deliveries);
    EXPECT_EQ(stepped.stats().rounds, jumped.stats().rounds);
    EXPECT_EQ(stepped.energy(), jumped.energy());
    EXPECT_EQ(jumped.skipped_rounds(), idle);
    EXPECT_EQ(stepped.skipped_rounds(), 0);
  }
}

// --no-fast-forward cross-check for the Decay family: under either coin
// contract, the fast_forward flag only changes whether the provably-idle
// rounds are stepped on the channel or advanced past — results must be
// bit-identical. Batched mode's idle rounds come from its transmit calendar;
// per_round mode's from deferring planned-but-empty rounds (draw order
// unchanged — the "exact where order is preserved" axis).
TEST(FastForward, ClassicDecayBitIdenticalInBothDrawModes) {
  const auto g = layered(10, 5, 31);
  for (const auto draws :
       {baseline::draw_mode::batched, baseline::draw_mode::per_round}) {
    core::options opt;
    opt.seed = 7;
    opt.fast_forward = false;
    const auto naive = baseline::run_decay_broadcast(g, 0, opt, draws);
    opt.fast_forward = true;
    const auto ff = baseline::run_decay_broadcast(g, 0, opt, draws);
    expect_same_result(naive, ff);
    EXPECT_TRUE(naive.completed);
  }
}

TEST(FastForward, LeveledDecayBitIdenticalWithAndWithoutNoise) {
  const auto g = layered(8, 4, 13);
  const auto levels = graph::bfs(g, 0).level;
  for (const bool mmv : {false, true}) {
    for (const auto draws :
         {baseline::draw_mode::batched, baseline::draw_mode::per_round}) {
      core::options opt;
      opt.seed = 11;
      opt.fast_forward = false;
      const auto naive =
          baseline::run_leveled_decay_broadcast(g, 0, levels, opt, mmv, draws);
      opt.fast_forward = true;
      const auto ff =
          baseline::run_leveled_decay_broadcast(g, 0, levels, opt, mmv, draws);
      expect_same_result(naive, ff);
      EXPECT_TRUE(naive.completed) << "mmv=" << mmv;
    }
  }
}

TEST(FastForward, TunedDecayBitIdentical) {
  const auto g = layered(12, 4, 17);
  for (const auto draws :
       {baseline::draw_mode::batched, baseline::draw_mode::per_round}) {
    core::options opt;
    opt.seed = 3;
    opt.fast_forward = false;
    const auto naive = baseline::run_tuned_decay_broadcast(g, 0, opt, draws);
    opt.fast_forward = true;
    const auto ff = baseline::run_tuned_decay_broadcast(g, 0, opt, draws);
    expect_same_result(naive, ff);
  }
}

// A trial that is complete before its first round (one node, which holds
// the message) completes at round 0 of its dissemination in both modes, so
// every protocol reports its setup rounds + 0. The setup rounds are every
// phase but the last (the unknown-topology pipelines); the others have none.
TEST(FastForward, EveryProtocolCompletesBeforeRoundOneOnASingleNode) {
  const auto g = graph::path(1);
  const auto& reg = core::protocol_registry::instance();
  for (const std::string& id : reg.ids()) {
    const core::broadcast_workload w{0, reg.find(id)->multi_message ? 3u : 1u};
    core::options opt;
    opt.prm = core::params::fast();
    opt.fast_forward = false;
    const auto naive = core::run_broadcast(g, id, w, opt);
    opt.fast_forward = true;
    const auto ff = core::run_broadcast(g, id, w, opt);
    SCOPED_TRACE(id);
    expect_same_result(naive.base, ff.base);
    round_t setup = 0;
    for (std::size_t i = 0; i + 1 < naive.base.phase_rounds.size(); ++i)
      setup += naive.base.phase_rounds[i].second;
    EXPECT_TRUE(naive.base.completed);
    EXPECT_EQ(naive.base.rounds_to_complete, setup);
    EXPECT_TRUE(naive.payloads_verified);
    // Stopped before its first round: no traffic, and the rounds it reports
    // are the prescribed phases (none for the runners without phases).
    for (const auto* res : {&naive.base, &ff.base}) {
      round_t phases = 0;
      for (const auto& [name, rounds] : res->phase_rounds) phases += rounds;
      EXPECT_EQ(res->transmissions, 0);
      EXPECT_EQ(res->rounds_executed, phases);
    }
  }
}

TEST(FastForward, AdvanceCountsRoundsAndNothingElse) {
  const auto g = layered(2, 2, 8);
  radio::network net(g, {.collision_detection = true});
  net.advance(123456789);
  EXPECT_EQ(net.now(), 123456789);
  EXPECT_EQ(net.stats().transmissions, 0);
  EXPECT_EQ(net.stats().deliveries, 0);
  EXPECT_EQ(net.stats().collisions_observed, 0);
  EXPECT_EQ(net.max_energy(), 0);
}

}  // namespace
}  // namespace rn
