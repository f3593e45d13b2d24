#include <gtest/gtest.h>

#include "common/math.h"
#include "core/assignment.h"
#include "graph/graph.h"

namespace rn::core {
namespace {

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

// Checks the six properties of the bipartite assignment problem (paper
// section 2.2.2) against the blackboard.
void check_assignment(const graph::graph& g, const build_state& st,
                      const std::vector<node_id>& reds,
                      const std::vector<node_id>& blues, rank_t i) {
  std::vector<std::size_t> child_count(g.node_count(), 0);
  std::vector<std::size_t> rank_i_children(g.node_count(), 0);
  for (node_id u : blues) {
    // (1) every blue has a red parent adjacent to it.
    ASSERT_TRUE(st.assigned[u]) << "blue " << u;
    const node_id p = st.parent[u];
    ASSERT_NE(p, no_node);
    EXPECT_TRUE(g.has_edge(u, p));
    child_count[p] += 1;
    if (st.rank[u] == i) rank_i_children[p] += 1;
    // (5)+(6): the blue knows its parent and the parent's rank.
    EXPECT_EQ(st.parent_rank[u], st.rank[p]);
  }
  // (2)+(4): red ranks follow the ranking rule over their children.
  for (node_id v : reds) {
    if (child_count[v] == 0) {
      EXPECT_EQ(st.rank[v], no_rank);
      continue;
    }
    if (rank_i_children[v] == 1) {
      EXPECT_EQ(st.rank[v], i) << "red " << v;
    } else if (rank_i_children[v] >= 2) {
      EXPECT_EQ(st.rank[v], i + 1) << "red " << v;
    }
  }
  // (3) collision-freeness: a rank-i blue with rank-i parent must not be
  // adjacent to another rank-i red that also has a rank-i child.
  for (node_id u : blues) {
    const node_id p = st.parent[u];
    if (st.rank[u] != i || st.rank[p] != i) continue;
    for (node_id w : g.neighbors(u)) {
      if (w == p || st.rank[w] != i) continue;
      EXPECT_EQ(rank_i_children[w], 0u)
          << "collision: blue " << u << " parent " << p << " vs red " << w;
    }
  }
}

struct Params {
  int L, dp, epochs, iters, step;
};

Params params_for(std::size_t n) {
  const int L = log_range(n) + 1;
  return {L, 2 * L, 3 * L, 2 * L * L, L};
}

TEST(Assignment, RoundsFormula) {
  const auto r = assignment_problem::rounds_required(3, 2, 4, 5);
  // decay = 2*4 = 8; part = 5*8 = 40; per epoch = 1 + 8 + 120 + 8 = 137.
  EXPECT_EQ(r, 8 + 4 * 137);
}

TEST(Assignment, SingleRedStar) {
  const std::size_t m = 6;
  const auto g = bipartite(1, m, [](node_id, node_id) { return true; });
  const auto p = params_for(g.node_count());
  const auto res = run_assignment(g, {0}, range(1, m), 1, p.L, p.dp, p.epochs,
                                  p.iters, p.step, 3);
  EXPECT_TRUE(res.all_assigned);
  check_assignment(g, res.st, {0}, range(1, m), 1);
  EXPECT_EQ(res.st.rank[0], 2);  // many children of rank 1
}

TEST(Assignment, PerfectMatchingGivesRankI) {
  const std::size_t m = 5;
  const auto g = bipartite(m, m, [](node_id i, node_id j) { return i == j; });
  const auto p = params_for(g.node_count());
  const auto res = run_assignment(g, range(0, m), range(m, m), 2, p.L, p.dp,
                                  p.epochs, p.iters, p.step, 5);
  EXPECT_TRUE(res.all_assigned);
  check_assignment(g, res.st, range(0, m), range(m, m), 2);
  for (node_id v = 0; v < m; ++v) {
    EXPECT_EQ(res.st.rank[v], 2);
    EXPECT_EQ(res.st.stretch_child[v], m + v);
  }
}

class AssignmentRandomTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AssignmentRandomTest, RandomBipartiteAssignsEverything) {
  const auto [seed, ri] = GetParam();
  rng prob(static_cast<std::uint64_t>(seed) * 99);
  const std::size_t R = 7, B = 12;
  const auto g = bipartite(R, B, [&](node_id, node_id) {
    return prob.bernoulli(0.35);
  });
  std::vector<node_id> blues;
  for (node_id j = 0; j < B; ++j)
    if (g.degree(static_cast<node_id>(R + j)) > 0)
      blues.push_back(static_cast<node_id>(R + j));
  if (blues.empty()) GTEST_SKIP();
  const auto p = params_for(g.node_count());
  const auto res =
      run_assignment(g, range(0, R), blues, static_cast<rank_t>(ri), p.L, p.dp,
                     p.epochs, p.iters, p.step, static_cast<std::uint64_t>(seed));
  EXPECT_TRUE(res.all_assigned) << "seed " << seed;
  check_assignment(g, res.st, range(0, R), blues, static_cast<rank_t>(ri));
}

INSTANTIATE_TEST_SUITE_P(Sweep, AssignmentRandomTest,
                         ::testing::Combine(::testing::Range(1, 16),
                                            ::testing::Values(1, 3)));

TEST(Assignment, EpochActiveRedsShrink) {
  // Lemma 2.4: active reds decay geometrically (here: just monotone + reach 0).
  rng prob(7);
  const std::size_t R = 20, B = 30;
  const auto g = bipartite(R, B, [&](node_id, node_id) {
    return prob.bernoulli(0.25);
  });
  std::vector<node_id> blues;
  for (node_id j = 0; j < B; ++j)
    if (g.degree(static_cast<node_id>(R + j)) > 0)
      blues.push_back(static_cast<node_id>(R + j));
  const auto p = params_for(g.node_count());
  const auto res = run_assignment(g, range(0, R), blues, 1, p.L, p.dp,
                                  p.epochs, p.iters, p.step, 11);
  ASSERT_FALSE(res.epoch_active_reds.empty());
  EXPECT_EQ(res.epoch_active_reds.back(), 0u)
      << "all reds should retire by the last epoch";
  EXPECT_TRUE(res.all_assigned);
}

TEST(Assignment, FallbacksStayRare) {
  int fallbacks = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    rng prob(seed * 3);
    const std::size_t R = 6, B = 10;
    const auto g = bipartite(R, B, [&](node_id, node_id) {
      return prob.bernoulli(0.4);
    });
    std::vector<node_id> blues;
    for (node_id j = 0; j < B; ++j)
      if (g.degree(static_cast<node_id>(R + j)) > 0)
        blues.push_back(static_cast<node_id>(R + j));
    const auto p = params_for(g.node_count());
    const auto res = run_assignment(g, range(0, R), blues, 1, p.L, p.dp,
                                    p.epochs, p.iters, p.step, seed);
    EXPECT_TRUE(res.all_assigned);
    fallbacks += res.fallback_finalizations + res.fallback_adoptions;
  }
  // [DEV-9]: with paper-grade constants the safety net should be idle.
  EXPECT_LE(fallbacks, 1);
}

}  // namespace
}  // namespace rn::core
