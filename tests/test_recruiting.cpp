#include <gtest/gtest.h>

#include "common/math.h"
#include "core/recruiting.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace rn::core {
namespace {

// Builds a bipartite graph: reds 0..r-1, blues r..r+b-1, with edges from a
// closure.
template <typename EdgeFn>
graph::graph bipartite(std::size_t r, std::size_t b, EdgeFn has_edge) {
  graph::graph::builder gb(r + b);
  for (node_id i = 0; i < r; ++i)
    for (node_id j = 0; j < b; ++j)
      if (has_edge(i, j)) gb.add_edge(i, static_cast<node_id>(r + j));
  return std::move(gb).build();
}

std::vector<node_id> range(node_id from, node_id count) {
  std::vector<node_id> v(count);
  for (node_id i = 0; i < count; ++i) v[i] = from + i;
  return v;
}

/// Draws once per position of [begin, end) from a copy of a stream, and
/// seeks the same window with seek_success, restarting after every success.
/// Both must fire at the same positions and leave the stream in one state.
template <class Exponent>
void expect_seek_matches_per_position_draws(std::uint64_t stream,
                                            round_t begin, round_t end,
                                            Exponent exponent) {
  rng per_position = rng::for_stream(91, stream);
  rng seeking = per_position;
  std::vector<round_t> want, got;
  for (round_t p = begin; p < end; ++p)
    if (per_position.with_probability_pow2(exponent(p))) want.push_back(p);
  // The size bound stops a seek that keeps returning one position.
  for (round_t p = seek_success(seeking, begin - 1, end, exponent);
       p < end && static_cast<round_t>(got.size()) <= end - begin;
       p = seek_success(seeking, p, end, exponent))
    got.push_back(p);
  EXPECT_EQ(want, got) << "window [" << begin << ", " << end << ")";
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(per_position(), seeking()) << "streams part after the window";
}

TEST(CoinSeek, MatchesPerPositionDraws) {
  rng pick(27);
  std::uint64_t stream = 0;
  for (const int L : {1, 2, 8, 18, 64}) {
    // The Decay ladders: exponent pos mod (L+1), 0 (no draw) at the top of
    // each ladder; at L = 64 the last rung, 2^-64, draws nothing either.
    const auto ladder = [L](round_t p) { return static_cast<int>(p % (L + 1)); };
    for (int w = 0; w < 40; ++w) {
      const auto begin = static_cast<round_t>(pick.uniform(3 * (L + 1)));
      const auto len = static_cast<round_t>(pick.uniform(4 * (L + 1) + 1));
      expect_seek_matches_per_position_draws(++stream, begin, begin + len,
                                             ladder);
    }
    // Recruiting round 0: exponent 1 + (iter / step) mod L, every iteration.
    for (const int step : {1, 3}) {
      const auto ramp = [L, step](round_t j) {
        return 1 + static_cast<int>((j / step) % L);
      };
      for (int w = 0; w < 40; ++w) {
        const auto begin = static_cast<round_t>(pick.uniform(2 * step * L));
        const auto len =
            static_cast<round_t>(pick.uniform(2 * step * L + 1));
        expect_seek_matches_per_position_draws(++stream, begin, begin + len,
                                               ramp);
      }
      // One window through every exponent, 64 included when L = 64.
      expect_seek_matches_per_position_draws(++stream, 0, step * L + 1, ramp);
    }
  }
}

TEST(Recruiting, RoundsFormula) {
  EXPECT_EQ(recruiting_instance::rounds_required(5, 10), 100);
  EXPECT_EQ(recruiting_instance::rounds_required(1, 1), 6);
}

TEST(Recruiting, SingleRedSingleBlue) {
  const auto g = bipartite(1, 1, [](node_id, node_id) { return true; });
  const auto res = run_recruiting(g, {0}, {1}, 3, 30, 3, 7);
  EXPECT_EQ(res.recruited, 1u);
  EXPECT_TRUE(res.properties_ok);
}

class RecruitingStarTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RecruitingStarTest, RedStarRecruitsAllBlues) {
  // One red adjacent to m blues: all must be recruited (via sigma batches
  // and the [DEV-2] grow handshake after a lone echo).
  const auto [m, seed] = GetParam();
  const auto g = bipartite(1, static_cast<std::size_t>(m),
                           [](node_id, node_id) { return true; });
  // w.h.p.-in-n guarantees need a floor on the ladder size for tiny n.
  const int L = std::max(4, log_range(static_cast<std::size_t>(m) + 1) + 1);
  const auto res = run_recruiting(g, {0}, range(1, static_cast<node_id>(m)), L,
                                  5 * L * L, L, static_cast<std::uint64_t>(seed));
  EXPECT_EQ(res.recruited, static_cast<std::size_t>(m));
  EXPECT_TRUE(res.properties_ok);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecruitingStarTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 7, 16),
                                            ::testing::Range(1, 6)));

class RecruitingRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(RecruitingRandomTest, PropertiesHoldOnRandomBipartite) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  rng prob(seed);
  const std::size_t R = 8, B = 14;
  const auto g = bipartite(
      R, B, [&](node_id, node_id) { return prob.bernoulli(0.4); });
  // Keep only blues with at least one red neighbor (others cannot recruit).
  std::vector<node_id> blues;
  for (node_id j = 0; j < B; ++j)
    if (g.degree(static_cast<node_id>(R + j)) > 0)
      blues.push_back(static_cast<node_id>(R + j));
  const int L = log_range(R + B) + 1;
  const auto res =
      run_recruiting(g, range(0, R), blues, L, 6 * L * L, L, seed * 13);
  // Lemma 2.3(a): every blue with a participating neighbor recruited w.h.p.
  EXPECT_EQ(res.recruited, blues.size()) << "seed " << seed;
  // Properties (b)/(c) must hold unconditionally [DEV-2].
  EXPECT_TRUE(res.properties_ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecruitingRandomTest, ::testing::Range(1, 21));

TEST(Recruiting, PerfectMatchingAllSolo) {
  // Disjoint red-blue pairs: every red must end class solo with its own blue.
  const std::size_t m = 6;
  const auto g =
      bipartite(m, m, [](node_id i, node_id j) { return i == j; });
  recruiting_instance::config cfg;
  cfg.g = &g;
  cfg.reds = range(0, m);
  cfg.blues = range(m, m);
  cfg.L = 4;
  cfg.iterations = 48;
  cfg.exp_step = 4;
  cfg.seed = 5;
  recruiting_instance inst(std::move(cfg));
  radio::network net(g, {.collision_detection = false});
  radio::round_buffer txs;
  while (!inst.finished()) {
    txs.clear();
    inst.plan(txs);
    net.step(txs, [&](const radio::reception& rx) { inst.on_reception(rx); });
    inst.end_round();
  }
  for (node_id v = 0; v < m; ++v) {
    const auto r = inst.red(v);
    EXPECT_EQ(r.k, recruiting_instance::klass::solo);
    EXPECT_EQ(r.solo_child, m + v);
    const auto b = inst.blue(static_cast<node_id>(m + v));
    EXPECT_TRUE(b.recruited);
    EXPECT_EQ(b.parent, v);
    EXPECT_EQ(b.parent_class, recruiting_instance::klass::solo);
  }
}

TEST(Recruiting, IsolatedBlueStaysUnrecruited) {
  // A blue with no red neighbor must simply remain unrecruited.
  graph::graph::builder gb(3);
  gb.add_edge(0, 1);  // red 0 - blue 1; blue 2 isolated
  const auto g = std::move(gb).build();
  const auto res = run_recruiting(g, {0}, {1, 2}, 3, 30, 3, 3);
  EXPECT_EQ(res.recruited, 1u);
  EXPECT_TRUE(res.properties_ok);
}

TEST(Recruiting, NodeBothColorsRejected) {
  const auto g = graph::path(2);
  recruiting_instance::config cfg;
  cfg.g = &g;
  cfg.reds = {0};
  cfg.blues = {0};
  cfg.L = 2;
  cfg.iterations = 2;
  cfg.exp_step = 1;
  EXPECT_THROW(recruiting_instance inst(std::move(cfg)), contract_error);
}

TEST(Recruiting, UnrecruitedCountTracks) {
  const auto g = bipartite(1, 3, [](node_id, node_id) { return true; });
  recruiting_instance::config cfg;
  cfg.g = &g;
  cfg.reds = {0};
  cfg.blues = range(1, 3);
  cfg.L = 3;
  cfg.iterations = 40;
  cfg.exp_step = 3;
  cfg.seed = 11;
  recruiting_instance inst(std::move(cfg));
  EXPECT_EQ(inst.unrecruited_count(), 3u);
  radio::network net(g, {.collision_detection = false});
  radio::round_buffer txs;
  while (!inst.finished()) {
    txs.clear();
    inst.plan(txs);
    net.step(txs, [&](const radio::reception& rx) { inst.on_reception(rx); });
    inst.end_round();
  }
  EXPECT_EQ(inst.unrecruited_count(), 0u);
}

}  // namespace
}  // namespace rn::core
