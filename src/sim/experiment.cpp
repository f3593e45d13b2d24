#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ostream>

#include "common/check.h"
#include "common/table.h"
#include "sim/engine.h"

namespace rn::sim {

const stats_summary* scenario_result::find(std::string_view name) const {
  for (const auto& m : summaries)
    if (m.name == name) return &m.stats;
  return nullptr;
}

std::vector<metric_summary> aggregate(const std::vector<metrics>& per_trial) {
  std::vector<std::string> order;
  std::vector<sample_stats> acc;
  for (const auto& m : per_trial) {
    for (const auto& [name, value] : m.items()) {
      std::size_t i = 0;
      while (i < order.size() && order[i] != name) ++i;
      if (i == order.size()) {
        order.push_back(name);
        acc.emplace_back();
      }
      acc[i].add(value);
    }
  }
  std::vector<metric_summary> out;
  out.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    out.push_back({order[i], acc[i].summarize()});
  return out;
}

namespace {

std::atomic<trial_graph_hook*> g_trial_hook{nullptr};

/// Pairs trial_begin with trial_end even when a probe throws.
struct trial_hook_scope {
  trial_graph_hook* hook;
  const graph::graph* g;
  trial_hook_scope(trial_graph_hook* h, const graph::topology_spec& spec,
                   const graph::graph& graph)
      : hook(h), g(&graph) {
    if (hook != nullptr) hook->trial_begin(spec, graph);
  }
  ~trial_hook_scope() {
    if (hook != nullptr) hook->trial_end(*g);
  }
};

}  // namespace

void set_trial_graph_hook(trial_graph_hook* hook) {
  g_trial_hook.store(hook, std::memory_order_release);
}

trial_graph_hook* get_trial_graph_hook() {
  return g_trial_hook.load(std::memory_order_acquire);
}

trial_fn make_trial(const scenario& sc) {
  if (sc.run) return sc.run;
  RN_REQUIRE(!sc.probes.empty(),
             "scenario '" + sc.label + "' has neither probes nor a trial fn");
  // Captured by value: the trial outlives the scenario list on the queue.
  return [topology = sc.topology, workload = sc.workload, options = sc.options,
          probes = sc.probes](std::size_t, rng& r) {
    graph::topology_spec spec = topology;
    spec.seed = r();
    const graph::graph g = graph::build_topology(spec);
    const trial_hook_scope hook_scope(get_trial_graph_hook(), spec, g);
    metrics m;
    for (const auto& p : probes) {
      core::options opt = options;
      opt.fast_forward = use_fast_forward();
      opt.seed = r();
      if (p.payload_size != 0) opt.payload_size = p.payload_size;
      if (p.message_seed != 0) opt.message_seed = p.message_seed;
      const core::broadcast_outcome out =
          core::run_broadcast(g, p.protocol, workload, opt);
      round_t setup = 0;
      if (!p.relay_phase.empty()) {
        for (const auto& [name, rounds] : out.base.phase_rounds)
          if (p.relay_phase != name) setup += rounds;
        if (!p.setup_metric.empty())
          m.set(p.setup_metric, static_cast<double>(setup));
      }
      m.set(p.metric,
            static_cast<double>(out.base.rounds_to_complete - setup));
      if (!p.completed_metric.empty())
        m.set(p.completed_metric, out.base.completed ? 1.0 : 0.0);
      if (!p.verified_metric.empty())
        m.set(p.verified_metric, out.payloads_verified ? 1.0 : 0.0);
    }
    return m;
  };
}

experiment_result run_experiment(const experiment& e, const run_config& cfg) {
  RN_REQUIRE(static_cast<bool>(e.make_scenarios),
             "experiment has no scenario factory: " + e.id);
  experiment_result result;
  result.id = e.id;
  result.seed = cfg.seed;
  result.trials_requested = cfg.trials;

  const auto scenarios = e.make_scenarios();
  std::vector<trial_fn> fns;
  fns.reserve(scenarios.size());
  for (const auto& sc : scenarios) fns.push_back(make_trial(sc));

  // Flatten scenarios x trials into one queue so one slow scenario cannot
  // serialize the experiment. Unit u = (s, t) keeps the historical stream
  // (s << 32) + t, so results are identical to the scenario-sequential runner
  // at every thread count.
  std::vector<std::vector<metrics>> per_trial(scenarios.size());
  for (auto& v : per_trial) v.resize(cfg.trials);
  run_parallel(scenarios.size() * cfg.trials, cfg.threads, [&](std::size_t u) {
    const std::size_t s = u / cfg.trials;
    const std::size_t t = u % cfg.trials;
    rng r = rng::for_stream(cfg.seed, (static_cast<std::uint64_t>(s) << 32) + t);
    per_trial[s][t] = fns[s](t, r);
  });

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    scenario_result sr;
    sr.label = scenarios[s].label;
    sr.params = scenarios[s].params;
    if (!scenarios[s].probes.empty() && !scenarios[s].run)
      sr.topology = scenarios[s].topology.to_string();
    sr.trials = cfg.trials;
    sr.summaries = aggregate(per_trial[s]);
    result.scenarios.push_back(std::move(sr));
  }
  return result;
}

namespace {

/// Metric column order: the experiment's explicit list, else first-seen union.
std::vector<std::string> metric_order(const experiment& e,
                                      const experiment_result& r) {
  if (!e.metric_columns.empty()) return e.metric_columns;
  std::vector<std::string> order;
  for (const auto& sr : r.scenarios)
    for (const auto& m : sr.summaries)
      if (std::find(order.begin(), order.end(), m.name) == order.end())
        order.push_back(m.name);
  return order;
}

std::string format_param(double v) {
  if (v == std::floor(v) && std::fabs(v) < 9e15)
    return std::to_string(static_cast<long long>(v));
  return text_table::num(v, 2);
}

}  // namespace

void print_report(std::ostream& os, const experiment& e,
                  const experiment_result& r) {
  os << "==============================================================\n"
     << e.id << ": " << e.title << "\n"
     << e.claim << "\n"
     << "constants profile: " << e.profile << "   seed: " << r.seed
     << "   trials: " << r.trials_requested << "\n"
     << "==============================================================\n";

  const auto cols = metric_order(e, r);
  // Param columns: first-seen union (scenario groups may differ, e.g. E8).
  std::vector<std::string> param_cols;
  for (const auto& sr : r.scenarios)
    for (const auto& [name, value] : sr.params)
      if (std::find(param_cols.begin(), param_cols.end(), name) ==
          param_cols.end())
        param_cols.push_back(name);

  std::vector<std::string> header{"scenario"};
  for (const auto& p : param_cols) header.push_back(p);
  for (const auto& c : cols) header.push_back(c);
  header.push_back("trials");

  text_table table(header);
  for (const auto& sr : r.scenarios) {
    std::vector<std::string> row{sr.label};
    for (const auto& p : param_cols) {
      std::string cell = "-";
      for (const auto& [name, value] : sr.params)
        if (name == p) cell = format_param(value);
      row.push_back(std::move(cell));
    }
    for (const auto& c : cols) {
      const stats_summary* s = sr.find(c);
      row.push_back(s != nullptr ? text_table::num(s->mean) : "-");
    }
    row.push_back(std::to_string(sr.trials));
    table.add_row(std::move(row));
  }
  table.print(os);
  if (!e.notes.empty()) os << "\n" << e.notes << "\n";
}

json_value to_json(const experiment& e, const experiment_result& r) {
  json_value root = json_value::object();
  // rn-bench-v2 everywhere: declarative scenarios carry their canonical
  // "topology" spec; escape-hatch scenarios simply omit the key. (The v1
  // compatibility hold ended with the Decay coin-contract re-baseline.)
  root["schema"] = "rn-bench-v2";
  root["experiment"] = r.id;
  root["title"] = e.title;
  root["claim"] = e.claim;
  root["profile"] = e.profile;
  root["seed"] = r.seed;
  root["trials"] = r.trials_requested;

  json_value scenarios = json_value::array();
  for (const auto& sr : r.scenarios) {
    json_value js = json_value::object();
    js["label"] = sr.label;
    if (!sr.topology.empty())
      js["topology"] = sr.topology;
    json_value params = json_value::object();
    for (const auto& [name, value] : sr.params) params[name] = value;
    js["params"] = std::move(params);
    js["trials"] = sr.trials;
    json_value ms = json_value::object();
    for (const auto& m : sr.summaries) {
      json_value s = json_value::object();
      s["count"] = m.stats.count;
      s["mean"] = m.stats.mean;
      s["stddev"] = m.stats.stddev;
      s["min"] = m.stats.min;
      s["p10"] = m.stats.p10;
      s["p50"] = m.stats.p50;
      s["p90"] = m.stats.p90;
      s["max"] = m.stats.max;
      ms[m.name] = std::move(s);
    }
    js["metrics"] = std::move(ms);
    scenarios.push_back(std::move(js));
  }
  root["scenarios"] = std::move(scenarios);
  return root;
}

registry& registry::instance() {
  static registry r;
  return r;
}

}  // namespace rn::sim
