#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/topology.h"
#include "out_of_range_specs.h"
#include "sim/adhoc.h"

namespace rn::graph {
namespace {

// --- generator invariants ----------------------------------------------------

TEST(PowerLaw, SizeEdgeCountAndConnectivity) {
  const std::size_t n = 500, m = 2;
  const auto g = power_law(n, m, 42);
  EXPECT_EQ(g.node_count(), n);
  EXPECT_TRUE(g.connected());
  // Node v attaches min(m, v) distinct edges to earlier nodes, all new.
  std::size_t expected = 0;
  for (std::size_t v = 1; v < n; ++v) expected += std::min(m, v);
  EXPECT_EQ(g.edge_count(), expected);
}

TEST(PowerLaw, DegreeDistributionHasHubTail) {
  const auto g = power_law(2000, 2, 7);
  std::vector<std::size_t> degrees;
  for (node_id v = 0; v < g.node_count(); ++v) degrees.push_back(g.degree(v));
  std::sort(degrees.begin(), degrees.end());
  const std::size_t median = degrees[degrees.size() / 2];
  const std::size_t max = degrees.back();
  // Preferential attachment: a hub far above the median (uniform attachment
  // would keep max within a small constant of it).
  EXPECT_LE(median, 4u);
  EXPECT_GE(max, 10 * median);
}

TEST(PowerLaw, SeedDeterminism) {
  const auto a = power_law(300, 3, 5);
  const auto b = power_law(300, 3, 5);
  const auto c = power_law(300, 3, 6);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_NE(a.edges(), c.edges());
}

TEST(UnitDisk, GridMatchesBruteForceEdgeSet) {
  // The cell-grid edge discovery must reproduce the O(n^2) definition:
  // edge iff euclidean distance <= radius. Replays the generator's point
  // draws (first 2n uniform01 values of rng(seed); radius is generous so
  // attempt 0 connects) and compares the full pairwise edge set.
  const std::size_t n = 150;
  const double radius = 0.25;
  const std::uint64_t seed = 11;
  const auto g = random_unit_disk(n, radius, seed);
  ASSERT_EQ(g.node_count(), n);
  ASSERT_TRUE(g.connected());

  rng r(seed);
  std::vector<std::pair<double, double>> pts(n);
  for (auto& pt : pts) pt = {r.uniform01(), r.uniform01()};
  std::vector<std::pair<node_id, node_id>> brute;
  for (node_id i = 0; i < n; ++i) {
    for (node_id j = i + 1; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      if (std::sqrt(dx * dx + dy * dy) <= radius) brute.emplace_back(i, j);
    }
  }
  EXPECT_EQ(g.edges(), brute);
}

TEST(UnitDisk, LargeRadiusIsComplete) {
  // radius >= sqrt(2) covers the unit square: every pair is an edge, and the
  // single-cell code path is exercised.
  const std::size_t n = 40;
  const auto g = random_unit_disk(n, 1.5, 3);
  EXPECT_EQ(g.edge_count(), n * (n - 1) / 2);
}

TEST(UnitDisk, TinyRadiusFailsCleanlyWithoutHugeGrid) {
  // cells per axis is clamped to ~sqrt(n): a microscopic radius must walk
  // its 64 disconnected attempts and throw, not allocate a 1/radius^2 grid.
  EXPECT_THROW(static_cast<void>(random_unit_disk(20, 1e-6, 1)),
               contract_error);
}

TEST(UnitDisk, SeedDeterminism) {
  const auto a = random_unit_disk(200, 0.15, 21);
  const auto b = random_unit_disk(200, 0.15, 21);
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(Gnp, ConnectivityAndDeterminism) {
  const auto a = random_gnp_connected(80, 0.1, 13);
  EXPECT_EQ(a.node_count(), 80u);
  EXPECT_TRUE(a.connected());
  const auto b = random_gnp_connected(80, 0.1, 13);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_NE(a.edges(), random_gnp_connected(80, 0.1, 14).edges());
}

// --- topology specs ----------------------------------------------------------

TEST(TopologySpec, ParsePrintRoundTrip) {
  const auto spec =
      parse_topology_spec("layered:depth=12,width=8,edge_prob=0.4");
  EXPECT_EQ(spec.kind, "layered");
  EXPECT_DOUBLE_EQ(spec.param("depth", 0), 12.0);
  EXPECT_DOUBLE_EQ(spec.param("edge_prob", 0), 0.4);
  EXPECT_DOUBLE_EQ(spec.param("absent", 7.5), 7.5);
  EXPECT_EQ(spec.to_string(), "layered:depth=12,width=8,edge_prob=0.4");
  EXPECT_EQ(parse_topology_spec(spec.to_string()), spec);
  // Bare kind, no params.
  EXPECT_EQ(parse_topology_spec("complete").to_string(), "complete");
}

TEST(TopologySpec, ParseRejectsGarbage) {
  EXPECT_THROW(static_cast<void>(parse_topology_spec("")), contract_error);
  EXPECT_THROW(static_cast<void>(parse_topology_spec("layered:depth")),
               contract_error);
  EXPECT_THROW(static_cast<void>(parse_topology_spec("layered:=3")),
               contract_error);
  EXPECT_THROW(static_cast<void>(parse_topology_spec("layered:depth=abc")),
               contract_error);
  EXPECT_THROW(static_cast<void>(parse_topology_spec("layered:edge_prob=nan")),
               contract_error);
  EXPECT_THROW(static_cast<void>(parse_topology_spec("path:n=inf")),
               contract_error);
}

TEST(TopologyRegistry, BuildIsSeedDeterministic) {
  topology_spec spec = parse_topology_spec("unit_disk:n=60,radius=0.3");
  spec.seed = 17;
  const auto a = build_topology(spec);
  const auto b = build_topology(spec);
  EXPECT_EQ(a.edges(), b.edges());
  spec.seed = 18;
  EXPECT_NE(a.edges(), build_topology(spec).edges());
}

TEST(TopologyRegistry, EveryBuiltinKindBuilds) {
  for (const auto& kind : topology_registry::instance().kinds()) {
    topology_spec spec;
    spec.kind = kind;
    spec.seed = 5;
    const auto g = build_topology(spec);  // defaults must be valid
    EXPECT_GE(g.node_count(), 2u) << kind;
    EXPECT_TRUE(g.connected()) << kind;
  }
}

TEST(TopologyRegistry, SpecParamsReachTheGenerator) {
  const auto g =
      build_topology(parse_topology_spec("grid:rows=3,cols=7"));
  EXPECT_EQ(g.node_count(), 21u);
  const auto pl = build_topology(parse_topology_spec("power_law:n=64"));
  EXPECT_EQ(pl.node_count(), 64u);
  // Layered depth is exact by construction.
  auto spec = parse_topology_spec("layered:depth=9,width=4");
  spec.seed = 2;
  const auto lg = build_topology(spec);
  const auto bfs_result = bfs(lg, 0);
  EXPECT_EQ(*std::max_element(bfs_result.level.begin(),
                              bfs_result.level.end()),
            9);
}

TEST(TopologyRegistry, UnknownKindAndParamFail) {
  EXPECT_THROW(static_cast<void>(build_topology({"no_such_kind", {}, 1})),
               contract_error);
  EXPECT_THROW(static_cast<void>(build_topology(
                   parse_topology_spec("layered:depht=9"))),  // typo
               contract_error);
  EXPECT_THROW(static_cast<void>(build_topology(
                   parse_topology_spec("grid:rows=2.5"))),  // non-integer
               contract_error);
}

// --- validation without generation -----------------------------------------

TEST(TopologyCheck, OutOfRangeValuesFailBeforeGeneration) {
  std::set<std::string> kinds;
  for (const char* text : test::kOutOfRangeSpecs) {
    const topology_spec spec = parse_topology_spec(text);
    kinds.insert(spec.kind);
    EXPECT_THROW(check_topology(spec), contract_error) << text;
    EXPECT_THROW(static_cast<void>(build_topology(spec)), contract_error)
        << text;
  }
  for (const auto& kind : topology_registry::instance().kinds()) {
    if (kind == "counting_path") continue;  // registered by a test below
    EXPECT_TRUE(kinds.count(kind) == 1) << "no out-of-range spec for " << kind;
  }
}

TEST(TopologyCheck, SmallestValidValuesPassAndBuild) {
  // The checks are the generators' own bounds, no stricter.
  for (const char* text :
       {"path:n=1", "cycle:n=3", "star:n=2", "complete:n=1",
        "grid:rows=1,cols=1", "binary_tree:n=1",
        "caterpillar:spine=1,legs=0", "layered:depth=1,width=1",
        "gnp:n=1,p=0", "unit_disk:n=1,radius=0.01",
        "power_law:n=2,edges_per_node=1",
        "clique_chain:cliques=1,clique_size=1",
        "dumbbell:side=1,bridge_len=0"}) {
    const topology_spec spec = parse_topology_spec(text);
    EXPECT_NO_THROW(check_topology(spec)) << text;
    EXPECT_NO_THROW(static_cast<void>(build_topology(spec))) << text;
  }
}

TEST(TopologyCheck, NodeCountsBelowNoNodePass) {
  // The node-count bound is the node id range, no stricter: counts just
  // below no_node pass the check (never built — they would take tens of
  // GiB). kOutOfRangeSpecs holds the same kinds at exactly no_node.
  for (const char* text :
       {"grid:rows=65535,cols=65536", "caterpillar:spine=65535,legs=65535",
        "layered:depth=2,width=2147483646",
        "clique_chain:cliques=65535,clique_size=65536",
        "dumbbell:side=2147483647,bridge_len=0"})
    EXPECT_NO_THROW(check_topology(parse_topology_spec(text))) << text;
}

TEST(TopologyCheck, SeedDependentFailureIsLeftToTheBuild) {
  const topology_spec spec = parse_topology_spec("gnp:n=2000,p=0.0001");
  EXPECT_NO_THROW(check_topology(spec));
  EXPECT_THROW(static_cast<void>(build_topology(spec)), contract_error);
}

// --- the streamed build -------------------------------------------------------

/// Offsets and adjacency bit for bit.
void expect_same_csr(const graph& got, const graph& want) {
  const auto off = got.offsets();
  ASSERT_TRUE(std::equal(off.begin(), off.end(), want.offsets().begin(),
                         want.offsets().end()));
  EXPECT_TRUE(std::equal(got.csr().adj, got.csr().adj + off.back(),
                         want.csr().adj));
}

/// graph::builder fed `g`'s edges last to first, each in both orientations
/// and twice, plus a self-loop per node: the fill's CSR depends on none of
/// emission order, duplicates or self-loops.
graph rebuilt_by_builder(const graph& g) {
  const auto edges = g.edges();
  graph::builder b(g.node_count());
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    b.add_edge(it->second, it->first);
    b.add_edge(it->first, it->second);
  }
  for (const auto& [u, v] : edges) b.add_edge(v, u);
  for (node_id v = 0; v < g.node_count(); ++v) b.add_edge(v, v);
  return std::move(b).build();
}

TEST(StreamBuild, EveryKindEqualsTheBuilderOnItsEdges) {
  std::vector<topology_spec> specs;
  for (const auto& kind : topology_registry::instance().kinds())
    if (kind != "counting_path") specs.push_back({kind, {}, 1});
  // Bigger than the registry defaults: a G(n, p) near its connectivity
  // threshold (retries) and a power law with a hub tail.
  specs.push_back(parse_topology_spec("gnp:n=100,p=0.05"));
  specs.push_back(parse_topology_spec("power_law:n=3000"));
  for (topology_spec& spec : specs) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      spec.seed = seed;
      SCOPED_TRACE(spec.to_string() + " seed " + std::to_string(seed));
      const graph g = build_topology(spec);
      expect_same_csr(g, rebuilt_by_builder(g));
    }
  }
}

TEST(StreamBuild, LayeredEqualsTheBuilderOnItsStream) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    auto spec =
        parse_topology_spec("layered:depth=9,width=30,edge_prob=0.2,"
                            "intra_prob=0.1");
    spec.seed = seed;
    const layered_options lo = layered_options_of(spec);
    graph::builder b(1 + lo.depth * lo.width);
    for_each_layered_edge(lo, [&](node_id u, node_id v) { b.add_edge(u, v); });
    expect_same_csr(build_topology(spec), std::move(b).build());
  }
}

TEST(StreamBuild, GnpRetryEqualsTheBuilderOnTheConnectedAttempt) {
  const std::size_t n = 100;
  const double p = 0.05;
  std::size_t retried = 0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    graph want;
    for (std::uint64_t attempt = 0; want.node_count() == 0; ++attempt) {
      ASSERT_LT(attempt, 64u);
      graph::builder b(n);
      for_each_gnp_edge(n, p, seed, attempt,
                        [&](node_id u, node_id v) { b.add_edge(u, v); });
      graph g = std::move(b).build();
      if (g.connected()) {
        want = std::move(g);
        retried += attempt > 0 ? 1 : 0;
      }
    }
    auto spec = parse_topology_spec("gnp:n=100,p=0.05");
    spec.seed = seed;
    expect_same_csr(build_topology(spec), want);
  }
  EXPECT_GT(retried, 0u) << "no seed's first attempt failed to connect";
}

/// Generations of the "counting_path" kind registered below.
std::size_t counting_builds = 0;

TEST(TopologyCheck, ValidationNeverCallsTheGenerator) {
  auto& reg = topology_registry::instance();
  if (reg.find("counting_path") == nullptr) {
    reg.add({"counting_path", "n", [](const topology_spec& s) {
               const auto n = static_cast<std::size_t>(s.param("n", 8));
               RN_REQUIRE(n >= 2, "counting_path needs n >= 2");
               return [n] {
                 ++counting_builds;
                 return path(n);
               };
             }});
  }
  counting_builds = 0;
  sim::adhoc_spec spec;
  spec.topology = "counting_path:n=12";
  spec.protocols = "decay";
  spec.sweep = "n=6,24";
  static_cast<void>(sim::make_adhoc_experiment(spec));
  static_cast<void>(sim::canonical_run_key(spec, 4, 1));
  check_topology(parse_topology_spec(spec.topology));
  EXPECT_EQ(counting_builds, 0u);

  spec.sweep = "n=6,1";  // the check still runs for every sweep point
  EXPECT_THROW(static_cast<void>(sim::make_adhoc_experiment(spec)),
               contract_error);
  EXPECT_EQ(counting_builds, 0u);

  const graph g = build_topology(parse_topology_spec("counting_path:n=12"));
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(counting_builds, 1u);
}

}  // namespace
}  // namespace rn::graph
