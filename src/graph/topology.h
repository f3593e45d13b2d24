// Declarative topology specs: workloads name their graph family as data.
//
// A `topology_spec` is {kind, ordered params, seed}; `build_topology` resolves
// the kind through a string-keyed registry of generator adapters wrapping
// everything in graph/generators.h. Each adapter reads and range-checks its
// kind's parameters in one place and hands back the generator call bound to
// them, so `check_topology` validates a spec without generating a graph and
// `build_topology` runs the same checks before generating. Specs print to a
// canonical "kind:param=value,..." form (stable across a parse round-trip),
// so the exact graph family of every scenario lands in the results JSON and
// on the CLI (`bench_suite --topology layered:depth=12,width=8`).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/registry.h"
#include "graph/graph.h"

namespace rn::graph {

struct layered_options;

/// A graph family member as a value: generator kind + numeric parameters.
struct topology_spec {
  std::string kind;  ///< registry key, e.g. "layered", "unit_disk", "power_law"
  /// Ordered (name, value) pairs; unknown names are rejected by
  /// check_topology / build_topology.
  std::vector<std::pair<std::string, double>> params;
  /// Generator seed for the random families (ignored by deterministic ones).
  /// Experiment runners overwrite this per trial from the trial's rng stream.
  std::uint64_t seed = 1;

  /// Value of `name`, or `fallback` if the spec does not set it.
  [[nodiscard]] double param(std::string_view name, double fallback) const;
  /// Sets `name` to `value` (appends if new, overwrites in place otherwise).
  void set_param(std::string_view name, double value);

  /// Canonical "kind:param=value,..." text form (no seed; the seed is a
  /// per-trial execution detail, not part of the family identity).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const topology_spec&, const topology_spec&) = default;
};

/// A generator call whose parameters are already read and range-checked;
/// calling it generates the graph.
using topology_build = std::function<graph()>;

/// Reads a spec's parameters and range-checks them, then returns the
/// generator call bound to them without running it. Throws input_error
/// on an unknown parameter name, a non-integer count or an out-of-range
/// value.
using topology_generator = std::function<topology_build(const topology_spec&)>;

/// Process-wide kind -> generator table. The builtin kinds are registered on
/// first access; custom families can be added at runtime (kinds must be
/// unique).
class topology_registry {
 public:
  static topology_registry& instance();

  struct entry {
    std::string kind;
    std::string params_help;  ///< e.g. "depth, width, edge_prob, intra_prob"
    topology_generator prepare;
  };

  void add(entry e) { table_.add(std::move(e)); }
  [[nodiscard]] const entry* find(std::string_view kind) const {
    return table_.find(kind);
  }
  /// Registration order.
  [[nodiscard]] std::vector<std::string> kinds() const {
    return table_.keys();
  }
  [[nodiscard]] std::string kinds_joined() const {
    return table_.keys_joined();
  }

 private:
  topology_registry();
  keyed_registry<entry, &entry::kind> table_{"topology kind"};
};

/// Resolves `spec.kind` through the registry and builds the graph.
/// Deterministic: equal specs (including seed) yield identical graphs.
/// Throws input_error for an unknown kind or invalid parameters, and
/// contract_error for seed-dependent generation failures (a `gnp` /
/// `unit_disk` draw that never connects).
[[nodiscard]] graph build_topology(const topology_spec& spec);

/// Runs every check `build_topology` runs before generating — kind lookup,
/// parameter names, integer-ness and value ranges — and generates nothing.
/// Throws exactly where `build_topology` would for these; seed-dependent
/// generation failures are left to the build.
void check_topology(const topology_spec& spec);

/// The `layered` kind's generator options for `spec`: its parameters read
/// and range-checked exactly as build_topology reads them, and its seed. The
/// registry's layered adapter and a rank streaming its view both use it, so
/// they cannot map a layered spec differently.
[[nodiscard]] layered_options layered_options_of(const topology_spec& spec);

/// Parses the canonical text form, e.g. "layered:depth=12,width=8". Parameter
/// values must be plain, finite decimal numbers. Throws input_error on
/// syntax errors; kind existence is checked later, by check_topology /
/// build_topology.
[[nodiscard]] topology_spec parse_topology_spec(std::string_view text);

}  // namespace rn::graph
