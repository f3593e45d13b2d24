#include "graph/topology.h"

#include <cmath>
#include <cstdlib>

#include "common/check.h"
#include "common/text.h"
#include "graph/generators.h"

namespace rn::graph {

double topology_spec::param(std::string_view name, double fallback) const {
  for (const auto& [k, v] : params)
    if (k == name) return v;
  return fallback;
}

void topology_spec::set_param(std::string_view name, double value) {
  for (auto& [k, v] : params) {
    if (k == name) {
      v = value;
      return;
    }
  }
  params.emplace_back(std::string(name), value);
}

namespace {

/// Reads params off a spec while checking every provided name is known, so a
/// typo ("with=8") fails instead of silently running the default.
class param_reader {
 public:
  explicit param_reader(const topology_spec& spec) : spec_(spec) {}

  double get(std::string_view name, double fallback) {
    known_.emplace_back(name);
    return spec_.param(name, fallback);
  }

  /// An integer parameter >= `min` — the generator's own lower bound, so a
  /// spec that would fail to build fails here instead. Counts size node
  /// ids, so they must also stay below `no_node`.
  std::size_t count(std::string_view name, std::size_t fallback,
                    std::size_t min = 0) {
    const double v = get(name, static_cast<double>(fallback));
    RN_CHECK_INPUT(v >= static_cast<double>(min) &&
                       v < static_cast<double>(no_node) && v == std::floor(v),
                   "topology param must be an integer in [" +
                       std::to_string(min) + ", " + std::to_string(no_node) +
                       "): " + std::string(name) + " in " + spec_.to_string());
    return static_cast<std::size_t>(v);
  }

  /// The node count a kind derives from several counts. Node ids run
  /// 0..n-1, so n must stay below `no_node` as well. Each count is below
  /// 2^32, so the products the adapters pass cannot wrap a 64-bit size_t.
  void nodes(std::size_t n) const {
    static_assert(sizeof(std::size_t) >= 8, "count products need 64 bits");
    RN_CHECK_INPUT(n < static_cast<std::size_t>(no_node),
                   "topology node count must be below " +
                       std::to_string(no_node) + ": " + std::to_string(n) +
                       " nodes in " + spec_.to_string());
  }

  /// Call after all get()/count() calls: rejects unconsumed spec params.
  void finish() const {
    for (const auto& [k, v] : spec_.params) {
      bool ok = false;
      for (const auto& name : known_)
        if (name == k) ok = true;
      RN_CHECK_INPUT(ok, "unknown parameter '" + k + "' for topology kind '" +
                             spec_.kind + "'");
    }
  }

 private:
  const topology_spec& spec_;
  std::vector<std::string> known_;
};

const topology_registry::entry& find_kind(const topology_spec& spec) {
  const auto* e = topology_registry::instance().find(spec.kind);
  RN_CHECK_INPUT(e != nullptr,
                 "unknown topology kind '" + spec.kind + "' (known: " +
                     topology_registry::instance().kinds_joined() + ")");
  return *e;
}

}  // namespace

std::string topology_spec::to_string() const {
  std::string out = kind;
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += i == 0 ? ":" : ",";
    out += params[i].first;
    out += "=";
    out += format_value(params[i].second);
  }
  return out;
}

topology_registry& topology_registry::instance() {
  static topology_registry reg;
  return reg;
}

topology_registry::topology_registry() {
  auto wrap = [this](const char* kind, const char* params_help,
                     topology_generator prepare) {
    add({kind, params_help, std::move(prepare)});
  };
  // Each adapter reads its parameters with the generator's lower bounds,
  // rejects unknown names, checks the node count its counts give, and
  // returns the call without generating.
  wrap("path", "n", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t n = p.count("n", 16, 1);
    p.finish();
    return [n] { return path(n); };
  });
  wrap("cycle", "n", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t n = p.count("n", 16, 3);
    p.finish();
    return [n] { return cycle(n); };
  });
  wrap("star", "n", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t n = p.count("n", 16, 2);
    p.finish();
    return [n] { return star(n); };
  });
  wrap("complete", "n", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t n = p.count("n", 16, 1);
    p.finish();
    return [n] { return complete(n); };
  });
  wrap("grid", "rows, cols", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t rows = p.count("rows", 4, 1);
    const std::size_t cols = p.count("cols", 4, 1);
    p.finish();
    p.nodes(rows * cols);
    return [rows, cols] { return grid(rows, cols); };
  });
  wrap("binary_tree", "n", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t n = p.count("n", 15, 1);
    p.finish();
    return [n] { return binary_tree(n); };
  });
  wrap("caterpillar", "spine, legs", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t spine = p.count("spine", 8, 1);
    const std::size_t legs = p.count("legs", 2);
    p.finish();
    p.nodes(spine * (1 + legs));
    return [spine, legs] { return caterpillar(spine, legs); };
  });
  wrap("layered", "depth, width, edge_prob, intra_prob",
       [](const topology_spec& s) {
         const layered_options lo = layered_options_of(s);
         return [lo] { return random_layered(lo); };
       });
  wrap("gnp", "n, p", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t n = p.count("n", 32, 1);
    const double prob = p.get("p", 0.2);
    p.finish();
    return [n, prob, seed = s.seed] {
      return random_gnp_connected(n, prob, seed);
    };
  });
  wrap("unit_disk", "n, radius", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t n = p.count("n", 40, 1);
    const double radius = p.get("radius", 0.3);
    p.finish();
    RN_CHECK_INPUT(radius > 0,
                   "unit_disk radius must be > 0 in " + s.to_string());
    return [n, radius, seed = s.seed] {
      return random_unit_disk(n, radius, seed);
    };
  });
  wrap("power_law", "n, edges_per_node", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t n = p.count("n", 64, 2);
    const std::size_t m = p.count("edges_per_node", 2, 1);
    p.finish();
    return [n, m, seed = s.seed] { return power_law(n, m, seed); };
  });
  wrap("clique_chain", "cliques, clique_size", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t cliques = p.count("cliques", 4, 1);
    const std::size_t clique_size = p.count("clique_size", 4, 1);
    p.finish();
    p.nodes(cliques * clique_size);
    return [cliques, clique_size] {
      return clique_chain(cliques, clique_size);
    };
  });
  wrap("dumbbell", "side, bridge_len", [](const topology_spec& s) {
    param_reader p(s);
    const std::size_t side = p.count("side", 8, 1);
    const std::size_t bridge_len = p.count("bridge_len", 2);
    p.finish();
    p.nodes(2 * side + bridge_len);
    return [side, bridge_len] { return dumbbell(side, bridge_len); };
  });
}

layered_options layered_options_of(const topology_spec& spec) {
  RN_REQUIRE(spec.kind == "layered",
             "layered options of a '" + spec.kind + "' spec");
  param_reader p(spec);
  layered_options lo;
  lo.depth = p.count("depth", lo.depth, 1);
  lo.width = p.count("width", lo.width, 1);
  lo.edge_prob = p.get("edge_prob", lo.edge_prob);
  lo.intra_prob = p.get("intra_prob", lo.intra_prob);
  lo.seed = spec.seed;
  p.finish();
  p.nodes(1 + lo.depth * lo.width);
  return lo;
}

graph build_topology(const topology_spec& spec) {
  return find_kind(spec).prepare(spec)();
}

void check_topology(const topology_spec& spec) {
  static_cast<void>(find_kind(spec).prepare(spec));
}

topology_spec parse_topology_spec(std::string_view text) {
  RN_CHECK_INPUT(!text.empty(), "empty topology spec");
  topology_spec spec;
  const std::size_t colon = text.find(':');
  spec.kind = std::string(text.substr(0, colon));
  RN_CHECK_INPUT(!spec.kind.empty(), "topology spec has no kind: " +
                                         std::string(text));
  if (colon == std::string_view::npos) return spec;
  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = item.find('=');
    RN_CHECK_INPUT(eq != std::string_view::npos && eq > 0,
                   "bad topology parameter (want name=value): " +
                       std::string(item));
    const std::string name(item.substr(0, eq));
    const std::string value(item.substr(eq + 1));
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    RN_CHECK_INPUT(end != nullptr && *end == '\0' && !value.empty() &&
                       std::isfinite(v),
                   "bad numeric value for topology parameter '" + name +
                       "': " + value);
    spec.set_param(name, v);
  }
  return spec;
}

}  // namespace rn::graph
