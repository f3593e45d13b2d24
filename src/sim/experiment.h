// Named experiments on top of the scenario-parallel runner.
//
// An experiment is a list of scenarios (e.g. one per diameter value). A
// scenario is declarative by default: a topology spec names the graph family
// and a list of protocol probes names what runs on it and which metric
// columns it produces; `trial_fn run` remains as an escape hatch for the
// construction/coding experiments that measure something other than a
// registered broadcast protocol. `run_experiment` flattens
// experiment -> scenarios -> trials into one global work queue on the thread
// pool (scenario-level parallelism) and aggregates each metric into a
// `stats_summary`; the result renders as the classic aligned text table
// and/or as machine-readable JSON (rn-bench-v2, what `--json` writes).
//
// Determinism contract: scenario s / trial t always runs on rng stream
// (s << 32) + t of the run seed, so aggregate results depend only on
// (seed, trials) — never on --threads or on which scenarios share the queue.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/registry.h"
#include "common/stats.h"
#include "core/api.h"
#include "graph/topology.h"
#include "sim/json.h"
#include "sim/runner.h"

namespace rn::sim {

/// One protocol run per trial of a declarative scenario, producing one or
/// more metric columns. Draw order per trial: one rng draw for the topology
/// seed, then one draw per probe for the protocol seed.
struct protocol_probe {
  protocol_probe() = default;
  protocol_probe(std::string protocol_id, std::string metric_name)
      : protocol(std::move(protocol_id)), metric(std::move(metric_name)) {}

  std::string protocol;  ///< core::protocol_registry id
  std::string metric;    ///< column for rounds_to_complete (or the
                         ///< dissemination rounds when relay_phase is set)
  /// Phase-split reporting (the Thm 1.1/1.3 setup-vs-dissemination rows):
  /// when `relay_phase` is non-empty, every other phase's rounds sum into
  /// `setup_metric` and `metric` becomes rounds_to_complete minus that setup.
  std::string setup_metric;
  std::string relay_phase;
  std::string completed_metric;  ///< if non-empty, emit the completion flag
  std::string verified_metric;   ///< if non-empty, emit payloads_verified
  /// Per-probe option overrides (0 = inherit the scenario's options).
  std::size_t payload_size = 0;
  std::uint64_t message_seed = 0;
};

/// One parameter point of an experiment.
struct scenario {
  std::string label;  ///< row label, e.g. "D=8"
  /// Key columns shown before the metrics (e.g. {"D", 8}, {"n", 241}).
  std::vector<std::pair<std::string, double>> params;
  /// Declarative form: a fresh `topology` member is built per trial (its seed
  /// drawn from the trial rng) and every probe runs on it.
  graph::topology_spec topology;
  core::broadcast_workload workload;  ///< source + message count
  core::options options;          ///< seed/fast_forward set per probe
  std::vector<protocol_probe> probes;
  /// Escape hatch: when set, it replaces the declarative fields entirely
  /// (construction experiments, coding-layer measurements, noise models).
  trial_fn run;
};

/// The trial function a scenario executes: `run` if set, else the
/// declarative topology + probes interpreter. Throws if neither is present.
[[nodiscard]] trial_fn make_trial(const scenario& sc);

/// Observer of declarative trial lifecycles. The distributed backend
/// (src/dist) installs one to see each trial's resolved topology spec and
/// freshly built graph *before* any network is constructed — its window to
/// arm the radio remote-walk hook and ship the spec to worker ranks.
/// `trial_begin` is called right after `build_topology`, `trial_end` when
/// the trial's probes are done (including on exception). Escape-hatch
/// scenarios (`scenario::run`) build no declarative topology and bypass the
/// hook. Implementations must be safe against concurrent trials from the
/// scenario pool — the dist session serializes them internally.
class trial_graph_hook {
 public:
  virtual ~trial_graph_hook() = default;
  virtual void trial_begin(const graph::topology_spec& spec,
                           const graph::graph& g) = 0;
  virtual void trial_end(const graph::graph& g) = 0;
};

/// Installs (nullptr clears) the process-wide trial observer. Set it before
/// launching a run; swapping it mid-run races the trial pool.
void set_trial_graph_hook(trial_graph_hook* hook);
[[nodiscard]] trial_graph_hook* get_trial_graph_hook();

struct experiment {
  std::string id;       ///< CLI name, e.g. "e1"
  std::string title;
  std::string claim;    ///< the paper claim under test
  std::string profile;  ///< constants profile ("fast", "paper", ...)
  std::string notes;    ///< epilogue printed under the table
  std::size_t default_trials = 5;
  /// Excluded from `--experiment all` (scale sweeps); run explicitly by id.
  bool slow = false;
  /// Metric column order for the table; empty = first-seen order.
  std::vector<std::string> metric_columns;
  std::function<std::vector<scenario>()> make_scenarios;
};

struct metric_summary {
  std::string name;
  stats_summary stats;
};

struct scenario_result {
  std::string label;
  std::vector<std::pair<std::string, double>> params;
  std::string topology;    ///< canonical spec text; empty for escape-hatch
  std::size_t trials = 0;  ///< trials run
  std::vector<metric_summary> summaries;

  /// nullptr if no trial reported the metric.
  [[nodiscard]] const stats_summary* find(std::string_view name) const;
};

struct experiment_result {
  std::string id;
  std::uint64_t seed = 0;
  std::size_t trials_requested = 0;
  std::vector<scenario_result> scenarios;
};

/// Aggregates per-trial metrics by name (trials missing a metric simply do
/// not contribute to its summary). Order: first-seen across trials.
[[nodiscard]] std::vector<metric_summary> aggregate(
    const std::vector<metrics>& per_trial);

/// Runs every scenario of `e` with `cfg` trials/threads/seed.
[[nodiscard]] experiment_result run_experiment(const experiment& e,
                                               const run_config& cfg);

/// Human-readable report: banner, aligned table (means), notes.
void print_report(std::ostream& os, const experiment& e,
                  const experiment_result& r);

/// Machine-readable report with the full per-metric summaries. Thread count
/// is deliberately not recorded: it must never affect results.
[[nodiscard]] json_value to_json(const experiment& e,
                                 const experiment_result& r);

/// Process-wide experiment name -> definition table. Experiments register
/// explicitly (no static-initialization tricks) via bench::register_all().
class registry {
 public:
  static registry& instance();

  void add(experiment e) { table_.add(std::move(e)); }
  [[nodiscard]] const experiment* find(std::string_view id) const {
    return table_.find(id);
  }
  /// Registration order.
  [[nodiscard]] std::vector<std::string> ids() const { return table_.keys(); }

 private:
  keyed_registry<experiment, &experiment::id> table_{"experiment id"};
};

}  // namespace rn::sim
