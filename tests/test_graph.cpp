#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "graph/bfs.h"
#include "graph/dot.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace rn::graph {
namespace {

TEST(Graph, BuilderDeduplicates) {
  graph::builder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const auto g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, SelfLoopsIgnored) {
  graph::builder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const auto g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, NeighborsSorted) {
  graph::builder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  const auto g = std::move(b).build();
  const auto nb = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_TRUE(g.has_edge(2, 4));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Graph, EdgeOutOfRangeThrows) {
  graph::builder b(2);
  EXPECT_THROW(b.add_edge(0, 2), contract_error);
  EXPECT_THROW(static_cast<void>(graph::from_edges(
                   2, [](auto&& add) { add(2, 0); })),
               contract_error);
}

TEST(Graph, Connectivity) {
  graph::builder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_FALSE(std::move(b).build().connected());
  EXPECT_TRUE(path(4).connected());
}

TEST(Generators, PathStructure) {
  const auto g = path(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(diameter(g), 4);
}

TEST(Generators, CycleStructure) {
  const auto g = cycle(6);
  EXPECT_EQ(g.edge_count(), 6u);
  for (node_id v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_EQ(diameter(g), 3);
}

TEST(Generators, StarStructure) {
  const auto g = star(9);
  EXPECT_EQ(g.degree(0), 8u);
  EXPECT_EQ(diameter(g), 2);
}

TEST(Generators, CompleteStructure) {
  const auto g = complete(7);
  EXPECT_EQ(g.edge_count(), 21u);
  EXPECT_EQ(diameter(g), 1);
}

TEST(Generators, GridStructure) {
  const auto g = grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u * 3 + 2u * 4);
  EXPECT_EQ(diameter(g), 5);
}

TEST(Generators, BinaryTreeStructure) {
  const auto g = binary_tree(15);
  EXPECT_EQ(g.edge_count(), 14u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Generators, CaterpillarStructure) {
  const auto g = caterpillar(4, 3);
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.degree(0), 1u + 3u);
}

TEST(Generators, CliqueChain) {
  const auto g = clique_chain(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_TRUE(g.connected());
  // Bridge endpoints have clique degree + 1.
  EXPECT_EQ(g.degree(3), 4u);
}

TEST(Generators, Dumbbell) {
  const auto g = dumbbell(5, 3);
  EXPECT_EQ(g.node_count(), 13u);
  EXPECT_TRUE(g.connected());
  EXPECT_GE(diameter(g), 4);
}

class LayeredTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LayeredTest, ExactDepthAndConnected) {
  const auto [depth, width, seed] = GetParam();
  layered_options lo;
  lo.depth = static_cast<std::size_t>(depth);
  lo.width = static_cast<std::size_t>(width);
  lo.edge_prob = 0.4;
  lo.seed = static_cast<std::uint64_t>(seed);
  const auto g = random_layered(lo);
  EXPECT_EQ(g.node_count(), 1 + lo.depth * lo.width);
  EXPECT_TRUE(g.connected());
  const auto b = bfs(g, 0);
  EXPECT_EQ(b.max_level, static_cast<level_t>(depth));
  // Every node's BFS level equals its layer index.
  for (std::size_t layer = 1; layer <= lo.depth; ++layer)
    for (std::size_t i = 0; i < lo.width; ++i)
      EXPECT_EQ(b.level[1 + (layer - 1) * lo.width + i],
                static_cast<level_t>(layer));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LayeredTest,
                         ::testing::Combine(::testing::Values(1, 3, 8, 15),
                                            ::testing::Values(1, 4, 9),
                                            ::testing::Values(1, 2, 3)));

TEST(Generators, GnpConnected) {
  const auto g = random_gnp_connected(40, 0.15, 3);
  EXPECT_EQ(g.node_count(), 40u);
  EXPECT_TRUE(g.connected());
}

TEST(Generators, UnitDiskConnected) {
  const auto g = random_unit_disk(50, 0.3, 5);
  EXPECT_EQ(g.node_count(), 50u);
  EXPECT_TRUE(g.connected());
}

TEST(Bfs, LevelsOnPath) {
  const auto g = path(6);
  const auto b = bfs(g, 0);
  for (node_id v = 0; v < 6; ++v) EXPECT_EQ(b.level[v], static_cast<level_t>(v));
  EXPECT_EQ(b.parent[3], 2u);
  EXPECT_EQ(b.parent[0], no_node);
}

TEST(Bfs, MultiSource) {
  const auto g = path(7);
  const auto b = bfs_multi(g, {0, 6});
  EXPECT_EQ(b.level[3], 3);
  EXPECT_EQ(b.level[5], 1);
  EXPECT_EQ(b.max_level, 3);
}

TEST(Bfs, MaskRestricts) {
  const auto g = path(5);
  std::vector<char> mask{1, 1, 0, 1, 1};
  const auto b = bfs_multi(g, {0}, &mask);
  EXPECT_EQ(b.level[1], 1);
  EXPECT_EQ(b.level[3], no_level);  // cut off by the mask
}

TEST(Bfs, MinIdParentIsDeterministic) {
  // Node 3 reachable via 1 and 2 at the same level; parent must be 1.
  graph::builder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  const auto g = std::move(b).build();
  EXPECT_EQ(bfs(g, 0).parent[3], 1u);
}

TEST(Dot, ContainsNodesAndTree) {
  const auto g = path(3);
  const auto s = to_dot(g, {}, {{0, 1, "green"}});
  EXPECT_NE(s.find("n0 -- n1 [color=green"), std::string::npos);
  EXPECT_NE(s.find("n1 -- n2"), std::string::npos);
}

}  // namespace
}  // namespace rn::graph
