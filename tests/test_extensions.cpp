// Tests for the extensions beyond the paper's core results: beep-wave
// diameter estimation (footnote 2), the erasure-channel robustness model,
// and the RLNC infection property (Definition 3.8 / Proposition 3.9) that
// powers the Theorem 1.2 analysis.
#include <gtest/gtest.h>

#include "baseline/decay.h"
#include "coding/rlnc.h"
#include "core/beep_waves.h"
#include "core/gst_centralized.h"
#include "core/schedule.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "radio/network.h"

namespace rn::core {
namespace {

class BeepWaveTest : public ::testing::TestWithParam<int> {};

TEST_P(BeepWaveTest, EstimateIsTwoApproximation) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  graph::layered_options lo;
  lo.depth = 3 + (seed % 13);
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = seed * 7;
  const auto g = graph::random_layered(lo);
  const auto ecc = graph::bfs(g, 0).max_level;
  const auto est = estimate_eccentricity_beep_waves(g, 0);
  EXPECT_GT(est.estimate, ecc - 1);       // upper bound on ecc
  EXPECT_LE(est.estimate, 2 * ecc);       // 2-approximation
  EXPECT_LE(est.rounds, 16 * (ecc + 2));  // O(D) rounds
}

INSTANTIATE_TEST_SUITE_P(Seeds, BeepWaveTest, ::testing::Range(1, 13));

TEST(BeepWave, PathExact) {
  // Path of length 8: ecc = 8; doubling stops at T = 16 (no node at distance
  // 16), but T = 8 still has a frontier node; estimate = 16.
  const auto g = graph::path(9);
  const auto est = estimate_eccentricity_beep_waves(g, 0);
  EXPECT_GE(est.estimate, 8);
  EXPECT_LE(est.estimate, 16);
}

TEST(BeepWave, SingleNodeAndStar) {
  const auto g1 = graph::path(1);
  EXPECT_GE(estimate_eccentricity_beep_waves(g1, 0).estimate, 0);
  const auto g2 = graph::star(12);
  const auto est = estimate_eccentricity_beep_waves(g2, 0);
  EXPECT_GE(est.estimate, 1);
  EXPECT_LE(est.estimate, 2);
}

TEST(Erasure, ModelDropsDeliveries) {
  const auto g = graph::path(2);
  radio::model m;
  m.collision_detection = false;
  m.erasure_prob = 0.5;
  radio::network net(g, m);
  const radio::packet b0 = radio::packet::make_beacon(0);
  radio::round_buffer txs;
  txs.add(0, b0);
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    net.step(txs, [&](const radio::reception& rx) {
      if (rx.what == radio::observation::message) ++delivered;
    });
  }
  EXPECT_NEAR(delivered, 1000, 120);
  EXPECT_EQ(net.stats().deliveries + net.stats().erasures, 2000);
}

TEST(Erasure, InvalidProbabilityRejected) {
  const auto g = graph::path(2);
  radio::model m;
  m.erasure_prob = 1.0;
  EXPECT_THROW(radio::network net(g, m), contract_error);
}

class ErasureRobustnessTest : public ::testing::TestWithParam<int> {};

TEST_P(ErasureRobustnessTest, DecayCompletesOnLossyChannel) {
  // Decay's redundancy makes it robust well beyond the paper's reliable
  // model: 30% packet loss only slows it down.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  graph::layered_options lo;
  lo.depth = 8;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = seed * 19;
  const auto g = graph::random_layered(lo);
  // Reuse the decay runner on a lossy network via the low-level engine.
  radio::model m;
  m.collision_detection = false;
  m.erasure_prob = 0.3;
  m.erasure_seed = seed;
  radio::network net(g, m);
  std::vector<char> informed(g.node_count(), 0);
  informed[0] = 1;
  std::size_t remaining = g.node_count() - 1;
  std::vector<rng> rngs;
  for (node_id v = 0; v < g.node_count(); ++v)
    rngs.push_back(rng::for_stream(seed, v));
  auto body = std::make_shared<radio::packet_body>();
  body->data = {1};
  const int L = 7;
  const radio::packet data_pkt = radio::packet::make_data(0, body);
  radio::round_buffer txs;
  for (round_t t = 0; t < 20000 && remaining > 0; ++t) {
    txs.clear();
    for (node_id v = 0; v < g.node_count(); ++v)
      if (informed[v] && rngs[v].with_probability_pow2(1 + static_cast<int>(t % L)))
        txs.add(v, data_pkt);
    net.step(txs, [&](const radio::reception& rx) {
      if (rx.what == radio::observation::message && !informed[rx.listener]) {
        informed[rx.listener] = 1;
        --remaining;
      }
    });
  }
  EXPECT_EQ(remaining, 0u) << "seed " << seed;
  EXPECT_GT(net.stats().erasures, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErasureRobustnessTest, ::testing::Range(1, 9));

TEST(Infection, Proposition39RelayProbability) {
  // Prop 3.9: if v is infected by mu and u receives one random combination
  // from v, then u becomes infected by mu with probability >= 1/2.
  const std::size_t k = 8;
  rng r(77);
  int infected = 0, trials = 0;
  for (int t = 0; t < 2000; ++t) {
    // v holds a random non-trivial subspace.
    coding::rlnc_node v(k, 1);
    const int rows = 1 + static_cast<int>(r.uniform(k));
    coding::gf2_decoder src(k, 1);
    for (std::size_t i = 0; i < k; ++i)
      src.insert(coding::gf2_vector::unit(k, i), {0});
    coding::gf2_vector coeffs;
    std::vector<std::uint8_t> payload;
    for (int i = 0; i < rows; ++i) {
      src.random_combination(r, coeffs, payload);
      v.receive(coeffs, payload);
    }
    const auto mu = coding::gf2_vector::random(k, r);
    if (mu.is_zero() || !v.decoder().infected_by(mu)) continue;
    ++trials;
    v.encode(r, coeffs, payload);
    if (coeffs.dot(mu)) ++infected;  // u receives it; infected iff <coeffs,mu> != 0
  }
  ASSERT_GT(trials, 400);
  EXPECT_GE(static_cast<double>(infected) / trials, 0.45);
}

TEST(Infection, FullInfectionImpliesDecodability) {
  // Second half of Prop 3.9: infected by all 2^k - 1 vectors <=> full rank.
  const std::size_t k = 5;
  rng r(3);
  coding::gf2_decoder dec(k, 1);
  coding::gf2_decoder src(k, 1);
  for (std::size_t i = 0; i < k; ++i)
    src.insert(coding::gf2_vector::unit(k, i), {0});
  coding::gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  while (!dec.complete()) {
    src.random_combination(r, coeffs, payload);
    dec.insert(coeffs, payload);
  }
  for (std::uint32_t bits = 1; bits < (1u << k); ++bits) {
    coding::gf2_vector mu(k);
    for (std::size_t i = 0; i < k; ++i) mu.set(i, (bits >> i) & 1);
    EXPECT_TRUE(dec.infected_by(mu));
  }
}

TEST(Erasure, GstBroadcastSurvivesMildLoss) {
  // The GST schedule retries via slow rounds, so mild erasure only delays.
  graph::layered_options lo;
  lo.depth = 8;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = 5;
  const auto g = graph::random_layered(lo);
  const auto t = build_gst_centralized(g, 0);
  const auto d = derive(g, t);
  // Run the broadcast manually on a lossy network with generous budget.
  gst_schedule sched(t, d, g.node_count());
  radio::model m;
  m.collision_detection = false;
  m.erasure_prob = 0.15;
  radio::network net(g, m);
  std::vector<char> informed(g.node_count(), 0);
  informed[0] = 1;
  std::size_t remaining = g.node_count() - 1;
  std::vector<rng> rngs;
  for (node_id v = 0; v < g.node_count(); ++v)
    rngs.push_back(rng::for_stream(9, v));
  auto body = std::make_shared<radio::packet_body>();
  body->data = {1};
  const radio::packet data_pkt = radio::packet::make_data(0, body);
  radio::round_buffer txs;
  for (round_t r = 0; r < 20000 && remaining > 0; ++r) {
    txs.clear();
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (!informed[v]) continue;
      if (sched.query(v, r, rngs[v]) != gst_schedule::action::none)
        txs.add(v, data_pkt);
    }
    net.step(txs, [&](const radio::reception& rx) {
      if (rx.what == radio::observation::message && !informed[rx.listener]) {
        informed[rx.listener] = 1;
        --remaining;
      }
    });
  }
  EXPECT_EQ(remaining, 0u);
}

}  // namespace
}  // namespace rn::core
