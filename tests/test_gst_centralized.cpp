#include <gtest/gtest.h>

#include "common/math.h"
#include "core/gst.h"
#include "core/gst_centralized.h"
#include "core/rings.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/topology.h"

namespace rn::core {
namespace {

void expect_valid(const graph::graph& g, const gst& t) {
  const auto errs = validate_gst(g, t);
  EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
}

TEST(Centralized, Path) { expect_valid(graph::path(12), build_gst_centralized(graph::path(12), 0)); }
TEST(Centralized, Star) { expect_valid(graph::star(12), build_gst_centralized(graph::star(12), 0)); }
TEST(Centralized, Complete) {
  const auto g = graph::complete(10);
  expect_valid(g, build_gst_centralized(g, 0));
}
TEST(Centralized, Cycle) {
  const auto g = graph::cycle(15);
  expect_valid(g, build_gst_centralized(g, 3));
}
TEST(Centralized, Grid) {
  const auto g = graph::grid(6, 7);
  expect_valid(g, build_gst_centralized(g, 0));
}
TEST(Centralized, BinaryTree) {
  const auto g = graph::binary_tree(63);
  expect_valid(g, build_gst_centralized(g, 0));
}
TEST(Centralized, Caterpillar) {
  const auto g = graph::caterpillar(8, 4);
  expect_valid(g, build_gst_centralized(g, 0));
}
TEST(Centralized, CliqueChain) {
  const auto g = graph::clique_chain(5, 6);
  expect_valid(g, build_gst_centralized(g, 0));
}
TEST(Centralized, Dumbbell) {
  const auto g = graph::dumbbell(8, 5);
  expect_valid(g, build_gst_centralized(g, 0));
}

TEST(Centralized, CoversAllReachableNodes) {
  const auto g = graph::grid(5, 5);
  const auto t = build_gst_centralized(g, 12);
  EXPECT_EQ(t.member_count(), 25u);
}

TEST(Centralized, MaxRankBound) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = graph::random_gnp_connected(60, 0.12, seed);
    const auto t = build_gst_centralized(g, 0);
    EXPECT_LE(t.max_rank(), static_cast<rank_t>(ceil_log2(60)) + 1);
  }
}

struct Family {
  const char* name;
  graph::graph (*make)(std::uint64_t seed);
};

graph::graph make_layered(std::uint64_t s) {
  graph::layered_options lo;
  lo.depth = 7;
  lo.width = 5;
  lo.edge_prob = 0.4;
  lo.intra_prob = 0.2;
  lo.seed = s;
  return graph::random_layered(lo);
}
graph::graph make_gnp(std::uint64_t s) {
  return graph::random_gnp_connected(48, 0.12, s);
}
graph::graph make_disk(std::uint64_t s) {
  return graph::random_unit_disk(48, 0.28, s);
}

class CentralizedPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CentralizedPropertyTest, ValidOnRandomFamilies) {
  const auto [family, seed] = GetParam();
  static const Family families[] = {
      {"layered", make_layered}, {"gnp", make_gnp}, {"disk", make_disk}};
  const auto g = families[family].make(static_cast<std::uint64_t>(seed));
  const auto t = build_gst_centralized(g, 0);
  expect_valid(g, t);
  // Levels must match true BFS distances.
  const auto b = graph::bfs(g, 0);
  for (node_id v = 0; v < g.node_count(); ++v)
    EXPECT_EQ(t.level[v], b.level[v]);
}

INSTANTIATE_TEST_SUITE_P(Families, CentralizedPropertyTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Range(1, 11)));

class MultiRootTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiRootTest, RingForestsAreValid) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  graph::layered_options lo;
  lo.depth = 12;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = seed;
  const auto g = graph::random_layered(lo);
  const auto b = graph::bfs(g, 0);
  const auto rd = decompose_rings(b.level, 4);
  ASSERT_GE(rd.rings.size(), 3u);
  for (const auto& ring : rd.rings) {
    std::vector<char> mask(g.node_count(), 0);
    for (node_id v : ring.members) mask[v] = 1;
    const auto t = build_gst_centralized_multi(g, ring.roots, &mask);
    const auto errs = validate_gst(g, t);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
    EXPECT_EQ(t.member_count(), ring.members.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiRootTest, ::testing::Range(1, 9));

// --- bit-for-bit equality with a quadratic reference ---------------------

/// The construction exactly as the header states it, with step 1 done the
/// direct way: rescan every unranked red for the most unassigned rank-i
/// blue neighbors, smallest id on ties, until no red has two. Quadratic.
gst reference_gst(const graph::graph& g, const std::vector<node_id>& roots,
                  const std::vector<char>* mask) {
  const std::size_t n = g.node_count();
  const auto b = graph::bfs_multi(g, roots, mask);
  gst t;
  t.roots = roots;
  t.member.assign(n, 0);
  t.level = b.level;
  t.parent.assign(n, no_node);
  t.rank.assign(n, no_rank);
  std::size_t members = 0;
  for (node_id v = 0; v < n; ++v) {
    t.member[v] = b.level[v] != no_level ? 1 : 0;
    members += t.member[v];
  }
  if (members == 0) return t;
  const rank_t max_rank =
      static_cast<rank_t>(ceil_log2(members < 2 ? 2 : members)) + 1;
  std::vector<char> assigned(n, 0);
  auto at = [&](node_id v, level_t l) {
    return t.member[v] != 0 && t.level[v] == l;
  };
  for (level_t l = b.max_level; l >= 1; --l) {
    for (node_id u = 0; u < n; ++u)
      if (at(u, l) && t.rank[u] == no_rank) t.rank[u] = 1;
    for (rank_t i = max_rank; i >= 1; --i) {
      auto in_u = [&](node_id w) {
        return at(w, l) && !assigned[w] && t.rank[w] == i;
      };
      for (;;) {  // step 1
        node_id best = no_node;
        std::size_t best_count = 0;
        for (node_id v = 0; v < n; ++v) {
          if (!at(v, l - 1) || t.rank[v] != no_rank) continue;
          std::size_t count = 0;
          for (node_id w : g.neighbors(v)) count += in_u(w) ? 1 : 0;
          if (count < 2) continue;
          if (best == no_node || count > best_count ||
              (count == best_count && v < best)) {
            best = v;
            best_count = count;
          }
        }
        if (best == no_node) break;
        for (node_id w : g.neighbors(best)) {
          if (!in_u(w)) continue;
          t.parent[w] = best;
          assigned[w] = 1;
        }
        t.rank[best] = i + 1;
      }
      for (node_id u = 0; u < n; ++u) {  // step 2
        if (!in_u(u)) continue;
        node_id unranked = no_node;
        node_id higher = no_node;
        for (node_id v : g.neighbors(u)) {
          if (!at(v, l - 1)) continue;
          if (t.rank[v] == no_rank && unranked == no_node) unranked = v;
          if (t.rank[v] > i && higher == no_node) higher = v;
        }
        t.parent[u] = unranked != no_node ? unranked : higher;
        if (unranked != no_node) t.rank[unranked] = i;
        assigned[u] = 1;
      }
    }
  }
  for (node_id r : t.roots)
    if (t.member[r] && t.rank[r] == no_rank) t.rank[r] = 1;
  return t;
}

void expect_same_gst(const gst& got, const gst& want, const std::string& what) {
  EXPECT_EQ(got.member, want.member) << what;
  EXPECT_EQ(got.level, want.level) << what;
  EXPECT_EQ(got.parent, want.parent) << what;
  EXPECT_EQ(got.rank, want.rank) << what;
}

TEST(CentralizedReference, EveryKindSeedAndSourceMatches) {
  const auto kinds = graph::topology_registry::instance().kinds();
  ASSERT_GE(kinds.size(), 13u);
  // Two larger specs beside the defaults: wide layers and a hub-heavy
  // power law give the adoption order real ties and re-filed counts.
  std::vector<std::string> specs(kinds.begin(), kinds.end());
  specs.emplace_back(
      "layered:depth=10,width=40,edge_prob=0.15,intra_prob=0.02");
  specs.emplace_back("power_law:n=300,edges_per_node=3");
  std::size_t compared = 0;
  for (const auto& text : specs) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      graph::topology_spec spec = graph::parse_topology_spec(text);
      spec.seed = seed;
      const auto g = graph::build_topology(spec);
      const auto n = static_cast<node_id>(g.node_count());
      for (const node_id source :
           {node_id{0}, static_cast<node_id>((seed * 7919) % n), n - 1}) {
        const std::string what =
            text + " seed " + std::to_string(seed) + " source " +
            std::to_string(source);
        const gst got = build_gst_centralized(g, source);
        expect_same_gst(got, reference_gst(g, {source}, nullptr), what);
        expect_valid(g, got);
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, specs.size() * 10 * 3);
}

TEST(CentralizedReference, MaskedRingForestsMatch) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    graph::layered_options lo;
    lo.depth = 16;
    lo.width = 12;
    lo.edge_prob = 0.3;
    lo.intra_prob = 0.05;
    lo.seed = seed;
    const auto g = graph::random_layered(lo);
    const auto rd = decompose_rings(graph::bfs(g, 0).level, 4);
    ASSERT_GE(rd.rings.size(), 3u);
    for (std::size_t r = 0; r < rd.rings.size(); ++r) {
      const auto& ring = rd.rings[r];
      std::vector<char> mask(g.node_count(), 0);
      for (node_id v : ring.members) mask[v] = 1;
      expect_same_gst(build_gst_centralized_multi(g, ring.roots, &mask),
                      reference_gst(g, ring.roots, &mask),
                      "seed " + std::to_string(seed) + " ring " +
                          std::to_string(r));
    }
  }
}

TEST(Rings, DecomposeBasics) {
  std::vector<level_t> levels{0, 1, 1, 2, 3, 4, 5};
  const auto rd = decompose_rings(levels, 3);
  ASSERT_EQ(rd.rings.size(), 2u);
  EXPECT_EQ(rd.rings[0].first_layer, 0);
  EXPECT_EQ(rd.rings[1].first_layer, 3);
  EXPECT_EQ(rd.ring_of[4], 1);
  EXPECT_EQ(rd.rel_level[4], 0);
  EXPECT_EQ(rd.rings[1].roots.size(), 1u);
  EXPECT_EQ(rd.rings[0].depth, 2);
}

TEST(Rings, WidthClamp) {
  EXPECT_EQ(ring_width_for(100, 0.0), 101);  // single ring
  EXPECT_EQ(ring_width_for(100, 10.0), 10);
  EXPECT_EQ(ring_width_for(100, 1000.0), 3);  // clamped to >= 3 [DEV-6]
  EXPECT_EQ(ring_width_for(4, 2.0), 3);
  // depth / divisor is 1e14, far past level_t: one ring, not a wrapped cast.
  EXPECT_EQ(ring_width_for(100, 1e-12), 101);
  // Below depth 3 the minimum width covers the graph: one ring.
  EXPECT_EQ(ring_width_for(1, 1.0), 2);
}

}  // namespace
}  // namespace rn::core
