// Ad-hoc declarative workloads assembled from the topology/protocol
// registries — the shared validation and experiment builder behind
// `bench_suite --topology ...` and the broadcast service's "run" requests.
//
// Everything is validated up front without generating a graph (unknown
// kinds, protocol ids, parameter names, out-of-range parameter values at
// every sweep point and malformed option strings throw contract_error
// before any trial runs), and every determinism-relevant input has a
// canonical text form, so two spec strings that canonicalize equal are
// guaranteed to produce byte-identical rn-bench-v2 results for equal
// (trials, seed) — the property the service result cache is keyed on.
#pragma once

#include <cstdint>
#include <string>

#include "sim/experiment.h"

namespace rn::sim {

/// One ad-hoc workload, exactly the CLI surface: a topology spec string, the
/// protocol probes to run on it, an optional one-parameter sweep, and the
/// canonical core::options string.
struct adhoc_spec {
  std::string topology;   ///< "kind:param=value,..." (required)
  std::string protocols;  ///< comma-separated protocol ids; empty = "decay"
  std::string sweep;      ///< "PARAM=V1,V2,..."; empty = single scenario
  std::size_t messages = 1;
  /// Canonical options string ("opt-v1:..."); empty = the ad-hoc default
  /// (core::options with the "fast" constants profile, the historical CLI
  /// behavior).
  std::string options;
};

/// The effective run options of `spec` (parsed `options`, or the ad-hoc
/// default when empty).
[[nodiscard]] core::options adhoc_options(const adhoc_spec& spec);

/// Validates `spec` against the registries and returns the synthetic "adhoc"
/// experiment (default_trials = 8). Throws contract_error on any unknown
/// kind/protocol/parameter, a parameter value out of its generator's range
/// at any sweep point, a single-message protocol with messages > 1, or a
/// malformed sweep/options string — always before any trial runs. Generates
/// no graph (graph::check_topology), so a seed-dependent generation failure
/// (gnp / unit_disk never connected) is raised by the trial instead.
[[nodiscard]] experiment make_adhoc_experiment(const adhoc_spec& spec);

/// Canonical identity of one (spec, trials, seed) run:
/// "topology=<canon>;protocols=<ids>;sweep=<canon>;messages=K;"
/// "options=<canon opt-v1>;trials=N;seed=S". Topology, sweep values and
/// options are re-printed through their parsers, so textual variants of the
/// same workload collapse to one key. Requires a valid spec (throws where
/// make_adhoc_experiment would).
[[nodiscard]] std::string canonical_run_key(const adhoc_spec& spec,
                                            std::size_t trials,
                                            std::uint64_t seed);

}  // namespace rn::sim
