#include <gtest/gtest.h>

#include "baseline/multi_baselines.h"
#include "core/multi_broadcast.h"
#include "graph/generators.h"

namespace rn::core {
namespace {

class KnownMultiTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KnownMultiTest, Theorem12DecodesExactPayloads) {
  const auto [k, seed] = GetParam();
  graph::layered_options lo;
  lo.depth = 6;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = static_cast<std::uint64_t>(seed) * 3;
  const auto g = graph::random_layered(lo);
  const auto msgs = coding::make_test_messages(static_cast<std::size_t>(k), 16,
                                               static_cast<std::uint64_t>(seed));
  options opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.payload_size = 16;
  const auto res = run_known_multi_broadcast(g, 0, msgs, opt);
  EXPECT_TRUE(res.base.completed) << "k=" << k << " seed=" << seed;
  EXPECT_TRUE(res.payloads_verified);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnownMultiTest,
                         ::testing::Combine(::testing::Values(1, 2, 5, 12, 24),
                                            ::testing::Values(1, 2, 3)));

TEST(KnownMulti, ThroughputScalesWithLogNotD) {
  // Doubling k adds ~6L rounds per extra message (one fresh wave per 6L-round
  // schedule period) — independent of D and far below sequential Decay's
  // ~D log n per message. Completion rounds jitter by about one wave period,
  // so slopes are averaged over seeds.
  auto mean_extra = [](std::size_t depth) {
    graph::layered_options lo;
    lo.depth = depth;
    lo.width = 3;
    lo.edge_prob = 0.5;
    lo.seed = 5;
    const auto g = graph::random_layered(lo);
    const auto m8 = coding::make_test_messages(8, 8, 1);
    const auto m16 = coding::make_test_messages(16, 8, 1);
    double total = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      options opt;
      opt.seed = seed;
      opt.payload_size = 8;
      const auto r8 = run_known_multi_broadcast(g, 0, m8, opt);
      const auto r16 = run_known_multi_broadcast(g, 0, m16, opt);
      EXPECT_TRUE(r8.base.completed && r16.base.completed);
      total += static_cast<double>(r16.base.rounds_to_complete -
                                   r8.base.rounds_to_complete);
    }
    return total / 5.0;
  };
  const double deep = mean_extra(24);
  const double shallow = mean_extra(6);
  EXPECT_LT(deep, 8 * 24 * 3);  // well below 8 extra D-trips
  EXPECT_LT(deep, 3.0 * std::max(shallow, 42.0));  // slope independent of D
}

class UnknownMultiTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(UnknownMultiTest, Theorem13DecodesExactPayloads) {
  const auto [seed, multi_ring] = GetParam();
  graph::layered_options lo;
  lo.depth = multi_ring ? 10 : 5;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = static_cast<std::uint64_t>(seed) * 11;
  const auto g = graph::random_layered(lo);
  const std::size_t k = 10;
  const auto msgs =
      coding::make_test_messages(k, 16, static_cast<std::uint64_t>(seed));
  options opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.payload_size = 16;
  opt.prm = params::fast();
  if (multi_ring) opt.prm.ring_divisor = 3.0;
  const auto res = run_unknown_cd_multi_broadcast(g, 0, msgs, opt);
  EXPECT_TRUE(res.base.completed) << "seed=" << seed;
  EXPECT_TRUE(res.payloads_verified);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnknownMultiTest,
                         ::testing::Combine(::testing::Range(1, 6),
                                            ::testing::Bool()));

TEST(Baselines, SequentialDecayDeliversAll) {
  const auto g = graph::grid(4, 5);
  options opt;
  opt.seed = 3;
  const auto res = baseline::run_sequential_decay_multi(g, 0, 5, opt);
  EXPECT_TRUE(res.completed);
}

TEST(Baselines, RoutingDeliversAll) {
  const auto g = graph::grid(4, 5);
  options opt;
  opt.seed = 3;
  const auto res = baseline::run_routing_multi(g, 0, 5, opt);
  EXPECT_TRUE(res.completed);
}

TEST(Baselines, SequentialSlowerThanCodingOnDeepGraphs) {
  graph::layered_options lo;
  lo.depth = 16;
  lo.width = 3;
  lo.edge_prob = 0.5;
  lo.seed = 4;
  const auto g = graph::random_layered(lo);
  const std::size_t k = 10;
  options opt;
  opt.seed = 6;
  opt.payload_size = 8;
  const auto seq = baseline::run_sequential_decay_multi(g, 0, k, opt);
  const auto rlnc = run_known_multi_broadcast(
      g, 0, coding::make_test_messages(k, 8, 2), opt);
  ASSERT_TRUE(seq.completed && rlnc.base.completed);
  EXPECT_GT(seq.rounds_to_complete, rlnc.base.rounds_to_complete);
}

}  // namespace
}  // namespace rn::core
