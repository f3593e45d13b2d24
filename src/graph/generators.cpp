#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/text.h"

namespace rn::graph {

namespace {

/// Disconnected draws a connected family tries before it rejects its spec.
constexpr std::uint64_t kConnectAttempts = 64;

/// Rejects a spec none of whose draws connected: the parameters come from
/// the user, so the message names them, not the generator.
std::string never_connected(const std::string& spec, const char* param) {
  return spec + " never connected in " + std::to_string(kConnectAttempts) +
         " attempts; raise " + param;
}

}  // namespace

graph path(std::size_t n) {
  RN_REQUIRE(n >= 1, "path needs >= 1 node");
  return graph::from_edges(n, [n](auto&& add) {
    for (node_id i = 0; i + 1 < n; ++i) add(i, i + 1);
  });
}

graph cycle(std::size_t n) {
  RN_REQUIRE(n >= 3, "cycle needs >= 3 nodes");
  return graph::from_edges(n, [n](auto&& add) {
    for (node_id i = 0; i < n; ++i) add(i, static_cast<node_id>((i + 1) % n));
  });
}

graph star(std::size_t n) {
  RN_REQUIRE(n >= 2, "star needs >= 2 nodes");
  return graph::from_edges(n, [n](auto&& add) {
    for (node_id i = 1; i < n; ++i) add(0, i);
  });
}

graph complete(std::size_t n) {
  RN_REQUIRE(n >= 1, "complete graph needs >= 1 node");
  return graph::from_edges(n, [n](auto&& add) {
    for (node_id i = 0; i < n; ++i)
      for (node_id j = i + 1; j < n; ++j) add(i, j);
  });
}

graph grid(std::size_t rows, std::size_t cols) {
  RN_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<node_id>(r * cols + c);
  };
  return graph::from_edges(rows * cols, [&](auto&& add) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (c + 1 < cols) add(id(r, c), id(r, c + 1));
        if (r + 1 < rows) add(id(r, c), id(r + 1, c));
      }
    }
  });
}

graph binary_tree(std::size_t n) {
  RN_REQUIRE(n >= 1, "tree needs >= 1 node");
  return graph::from_edges(n, [n](auto&& add) {
    for (node_id i = 1; i < n; ++i) add(i, (i - 1) / 2);
  });
}

graph caterpillar(std::size_t spine, std::size_t legs) {
  RN_REQUIRE(spine >= 1, "caterpillar needs a spine");
  const std::size_t n = spine * (1 + legs);
  return graph::from_edges(n, [spine, legs](auto&& add) {
    for (node_id i = 0; i + 1 < spine; ++i) add(i, i + 1);
    node_id next = static_cast<node_id>(spine);
    for (node_id s = 0; s < spine; ++s)
      for (std::size_t l = 0; l < legs; ++l) add(s, next++);
  });
}

graph random_layered(const layered_options& opt) {
  RN_REQUIRE(opt.depth >= 1 && opt.width >= 1, "layered graph dimensions");
  const std::size_t n = 1 + opt.depth * opt.width;
  return graph::from_edges(
      n, [&opt](auto&& add) { for_each_layered_edge(opt, add); });
}

graph random_gnp_connected(std::size_t n, double p, std::uint64_t seed) {
  RN_REQUIRE(n >= 1, "gnp needs >= 1 node");
  for (std::uint64_t attempt = 0; attempt < kConnectAttempts; ++attempt) {
    graph g = graph::from_edges(n, [&](auto&& add) {
      for_each_gnp_edge(n, p, seed, attempt, add);
    });
    if (g.connected()) return g;
  }
  RN_CHECK_INPUT(false, never_connected("gnp:n=" + std::to_string(n) +
                                            ",p=" + format_value(p),
                                        "p"));
  return {};
}

graph random_unit_disk(std::size_t n, double radius, std::uint64_t seed) {
  RN_REQUIRE(n >= 1 && radius > 0, "unit disk parameters");
  // Any cell width >= radius means an edge spans at most one cell boundary
  // per axis, so scanning the 3x3 neighborhood finds exactly the brute-force
  // edge set while only the points draw randomness. The grid is clamped to
  // ~sqrt(n) cells per axis so memory stays O(n) at any radius.
  const double min_width = 1.0 / (std::sqrt(static_cast<double>(n)) + 1.0);
  const double cell_width = std::max(radius, min_width);
  const std::size_t cells =
      cell_width >= 1.0 ? 1 : static_cast<std::size_t>(1.0 / cell_width) + 1;
  for (std::uint64_t attempt = 0; attempt < kConnectAttempts; ++attempt) {
    rng r(seed + attempt * 0x9d5f3ULL);
    std::vector<std::pair<double, double>> pts(n);
    for (auto& pt : pts) pt = {r.uniform01(), r.uniform01()};
    auto cell_of = [&](double x) {
      auto c = static_cast<std::size_t>(x / cell_width);
      return c >= cells ? cells - 1 : c;
    };
    std::vector<std::vector<node_id>> grid_cells(cells * cells);
    for (node_id i = 0; i < n; ++i)
      grid_cells[cell_of(pts[i].first) * cells + cell_of(pts[i].second)]
          .push_back(i);
    graph g = graph::from_edges(n, [&](auto&& add) {
      for (node_id i = 0; i < n; ++i) {
        const std::size_t cx = cell_of(pts[i].first);
        const std::size_t cy = cell_of(pts[i].second);
        for (std::size_t nx = cx > 0 ? cx - 1 : 0;
             nx <= (cx + 1 < cells ? cx + 1 : cells - 1); ++nx) {
          for (std::size_t ny = cy > 0 ? cy - 1 : 0;
               ny <= (cy + 1 < cells ? cy + 1 : cells - 1); ++ny) {
            for (const node_id j : grid_cells[nx * cells + ny]) {
              if (j <= i) continue;
              const double dx = pts[i].first - pts[j].first;
              const double dy = pts[i].second - pts[j].second;
              if (std::sqrt(dx * dx + dy * dy) <= radius) add(i, j);
            }
          }
        }
      }
    });
    if (g.connected()) return g;
  }
  RN_CHECK_INPUT(false, never_connected("unit_disk:n=" + std::to_string(n) +
                                            ",radius=" + format_value(radius),
                                        "radius"));
  return {};
}

graph power_law(std::size_t n, std::size_t edges_per_node,
                std::uint64_t seed) {
  RN_REQUIRE(n >= 2 && edges_per_node >= 1, "power law parameters");
  rng r(seed);
  // One entry per edge endpoint: sampling it uniformly is sampling a node
  // with probability proportional to degree (the classic BA list trick).
  std::vector<node_id> endpoints;
  endpoints.reserve(2 * edges_per_node * n);
  std::vector<node_id> chosen;
  for (node_id v = 1; v < n; ++v) {
    const std::size_t m = std::min<std::size_t>(edges_per_node, v);
    chosen.clear();
    if (m == v) {
      for (node_id u = 0; u < v; ++u) chosen.push_back(u);
    } else {
      for (std::size_t e = 0; e < m; ++e) {
        node_id pick = endpoints.empty() ? 0 : no_node;
        for (int tries = 0; tries < 64 && pick == no_node; ++tries) {
          const node_id cand = endpoints[r.uniform(endpoints.size())];
          if (std::find(chosen.begin(), chosen.end(), cand) == chosen.end())
            pick = cand;
        }
        if (pick == no_node)  // pathological rejection streak: first unused id
          for (node_id u = 0; u < v && pick == no_node; ++u)
            if (std::find(chosen.begin(), chosen.end(), u) == chosen.end())
              pick = u;
        chosen.push_back(pick);
      }
    }
    for (const node_id u : chosen) {
      endpoints.push_back(v);
      endpoints.push_back(u);
    }
  }
  // The list holds each edge as its (v, u) endpoint pair: it is the stream.
  return graph::from_edges(n, [&endpoints](auto&& add) {
    for (std::size_t k = 0; k < endpoints.size(); k += 2)
      add(endpoints[k], endpoints[k + 1]);
  });
}

graph clique_chain(std::size_t cliques, std::size_t clique_size) {
  RN_REQUIRE(cliques >= 1 && clique_size >= 1, "clique chain parameters");
  const std::size_t n = cliques * clique_size;
  auto id = [clique_size](std::size_t c, std::size_t i) {
    return static_cast<node_id>(c * clique_size + i);
  };
  return graph::from_edges(n, [&](auto&& add) {
    for (std::size_t c = 0; c < cliques; ++c) {
      for (std::size_t i = 0; i < clique_size; ++i)
        for (std::size_t j = i + 1; j < clique_size; ++j)
          add(id(c, i), id(c, j));
      if (c + 1 < cliques) add(id(c, clique_size - 1), id(c + 1, 0));
    }
  });
}

graph dumbbell(std::size_t side, std::size_t bridge_len) {
  RN_REQUIRE(side >= 1, "dumbbell side size");
  const std::size_t n = 2 * side + bridge_len;
  const node_id right = static_cast<node_id>(side + bridge_len);
  return graph::from_edges(n, [&](auto&& add) {
    for (node_id i = 0; i < side; ++i)
      for (node_id j = i + 1; j < side; ++j) add(i, j);
    for (node_id i = right; i < n; ++i)
      for (node_id j = i + 1; j < n; ++j) add(i, j);
    node_id prev = side - 1;
    for (std::size_t i = 0; i < bridge_len; ++i) {
      const node_id mid = static_cast<node_id>(side + i);
      add(prev, mid);
      prev = mid;
    }
    add(prev, right);
  });
}

}  // namespace rn::graph
