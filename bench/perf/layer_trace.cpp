// Outside-in layer tracer of the perf benchmark (bench/perf/run.py --trace).
//
//   layer_trace --out DIR [--ranks R] [--seconds S] -- <bench_suite arguments>
//   layer_trace --out DIR --requests FILE [--clients C] [--workers W]
//               [--threads T] [--cache N] [--seconds S]
//
// Every layer is timed from outside, around calls into its public headers;
// nothing inside the program is instrumented. Two passes:
//
//   1. Same work. The batch job (the bench_suite argument list, on a rank
//      fleet when --ranks is given) or the request replay (--requests, on an
//      in-process svc::service) runs untraced and traced, alternately, within
//      the --seconds budget. The traced pass installs a forwarding
//      sim::trial_graph_hook that records one `sim.trial` span per trial and
//      captures each trial's resolved topology spec; on a rank fleet it wraps
//      the dist session's hook and times every `walk_round` through a
//      forwarding radio::remote_walk. Every pass must produce the same bytes.
//   2. Layer probes, run serially: graph build and partitioning, network
//      construction and centralized GST construction on every captured spec;
//      a synthetic Decay-density walk on the largest captured graph; every
//      registered protocol on e1's D = 8 graph; a rank fleet (unless pass 1
//      ran on one) and the service (unless pass 1 was a replay).
//
// Outputs in DIR, written once at exit: results.json (pass 1: the exact
// bench_suite --json bytes, or {cache key: payload} for a replay),
// spans.json ({trace, id, parent, name, start_ns, end_ns} per span) and
// layers.json (the per-layer metrics run.py prints). Exit code 1 when two
// passes disagree, 2 on bad usage or an exception.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/api.h"
#include "core/gst_centralized.h"
#include "core/params.h"
#include "dist/session.h"
#include "dist/worker.h"
#include "experiments/experiments.h"
#include "graph/partitioned.h"
#include "graph/topology.h"
#include "radio/network.h"
#include "sim/adhoc.h"
#include "sim/cli.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/json.h"
#include "sim/runner.h"
#include "svc/request.h"
#include "svc/service.h"

namespace {

using rn::sim::json_value;

/// Nanoseconds since the first call; span and probe timing only.
std::int64_t now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) span timing of the benchmark tracer, never results JSON
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)  // rn-lint: allow(R1) span timing of the benchmark tracer, never results JSON
      .count();
}

double ms_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e6;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

// --- spans -------------------------------------------------------------------

struct span {
  std::string trace;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans of the whole run, kept in memory; ids are 1-based indices.
class span_log {
 public:
  void set_trace(std::string trace) {
    const std::lock_guard lock(mu_);
    trace_ = std::move(trace);
  }
  std::uint64_t open(std::uint64_t parent, std::string name) {
    const std::int64_t t = now_ns();
    const std::lock_guard lock(mu_);
    spans_.push_back({trace_, spans_.size() + 1, parent, std::move(name), t, t});
    return spans_.size();
  }
  void close(std::uint64_t id) {
    const std::int64_t t = now_ns();
    const std::lock_guard lock(mu_);
    spans_[id - 1].end_ns = t;
  }
  void add(std::uint64_t parent, std::string name, std::int64_t start,
           std::int64_t end) {
    const std::lock_guard lock(mu_);
    spans_.push_back(
        {trace_, spans_.size() + 1, parent, std::move(name), start, end});
  }
  /// Durations in ms of the spans called `name` in `trace`.
  std::vector<double> durations_ms(const std::string& trace,
                                   const std::string& name) const {
    return select([&](const span& s) { return s.trace == trace && s.name == name; });
  }
  /// Durations in ms of the children of `parent` called `name`.
  std::vector<double> child_ms(std::uint64_t parent,
                               const std::string& name) const {
    return select([&](const span& s) { return s.parent == parent && s.name == name; });
  }
  [[nodiscard]] json_value to_json() const {
    const std::lock_guard lock(mu_);
    json_value arr = json_value::array();
    for (const span& s : spans_) {
      json_value o = json_value::object();
      o["trace"] = s.trace;
      o["id"] = s.id;
      o["parent"] = s.parent;
      o["name"] = s.name;
      o["start_ns"] = s.start_ns;
      o["end_ns"] = s.end_ns;
      arr.push_back(std::move(o));
    }
    return arr;
  }

 private:
  template <class Pred>
  std::vector<double> select(Pred pred) const {
    const std::lock_guard lock(mu_);
    std::vector<double> out;
    for (const span& s : spans_)
      if (pred(s)) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    return out;
  }

  mutable std::mutex mu_;
  std::string trace_;
  std::vector<span> spans_;
};

span_log g_log;
/// Parent of the spans pool threads open (the running experiment or pass).
std::atomic<std::uint64_t> g_parent{0};
/// The trial span open on this thread (trial_begin/trial_end pair per thread).
thread_local std::uint64_t t_trial_span = 0;

class scoped_span {
 public:
  scoped_span(std::uint64_t parent, std::string name)
      : id_(g_log.open(parent, std::move(name))) {}
  ~scoped_span() { g_log.close(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  std::uint64_t id_;
};

// --- the forwarding hooks ----------------------------------------------------

struct captured_spec {
  rn::graph::topology_spec spec;
  std::size_t nodes = 0;
  std::size_t edges = 0;
};

/// Observes trials (and, on a rank fleet, round walks) by forwarding to the
/// dist session, if any, and recording spans around the forwarded calls.
class trace_hook final : public rn::sim::trial_graph_hook,
                         public rn::radio::remote_walk {
 public:
  explicit trace_hook(rn::dist::session* fleet) : fleet_(fleet) {}

  void trial_begin(const rn::graph::topology_spec& spec,
                   const rn::graph::graph& g) override {
    t_trial_span = g_log.open(g_parent.load(), "sim.trial");
    capture(spec, g);
    if (fleet_ == nullptr) return;
    try {
      const scoped_span setup(t_trial_span, "dist.trial_setup");
      fleet_->trial_begin(spec, g);
    } catch (...) {
      g_log.close(t_trial_span);
      throw;
    }
    // The session armed itself as the walk hook; interpose.
    rn::radio::set_remote_walk(this);
  }
  void trial_end(const rn::graph::graph& g) override {
    if (fleet_ != nullptr) fleet_->trial_end(g);
    g_log.close(t_trial_span);
    t_trial_span = 0;
  }

  bool adopt(const rn::graph::graph& g) override { return fleet_->adopt(g); }
  void release(const rn::graph::graph& g) override { fleet_->release(g); }
  void walk_round(const rn::radio::round_buffer& txs, std::uint64_t* hits,
                  rn::radio::touch_list* touched) override {
    const scoped_span s(t_trial_span, "dist.walk_round");
    fleet_->walk_round(txs, hits, touched);
  }

  /// One spec per topology family (canonical text), the lowest seed seen, so
  /// the probe set does not depend on trial scheduling.
  [[nodiscard]] std::vector<captured_spec> captured() const {
    const std::lock_guard lock(mu_);
    std::vector<captured_spec> out;
    for (const auto& [key, c] : specs_) out.push_back(c);
    return out;
  }

 private:
  void capture(const rn::graph::topology_spec& spec,
               const rn::graph::graph& g) {
    const std::lock_guard lock(mu_);
    auto [it, fresh] = specs_.try_emplace(spec.to_string());
    if (fresh || spec.seed < it->second.spec.seed)
      it->second = {spec, g.node_count(), g.edge_count()};
  }

  rn::dist::session* fleet_;
  mutable std::mutex mu_;
  std::map<std::string, captured_spec> specs_;
};

// --- pass 1: the same work ---------------------------------------------------

struct batch_job {
  rn::sim::cli_options cli;
  rn::sim::experiment adhoc;
  std::vector<const rn::sim::experiment*> experiments;
};

/// Resolves a bench_suite argument list the way run_suite does.
void parse_job(std::vector<std::string> args, batch_job& job) {
  std::string prog = "layer_trace";
  std::vector<char*> argv{prog.data()};
  for (auto& a : args) argv.push_back(a.data());
  RN_REQUIRE(rn::sim::parse_cli(static_cast<int>(argv.size()), argv.data(),
                                job.cli),
             "bad bench_suite arguments");
  const auto& reg = rn::sim::registry::instance();
  if (!job.cli.topology.empty()) {
    rn::sim::adhoc_spec spec;
    spec.topology = job.cli.topology;
    spec.protocols = job.cli.protocols;
    spec.sweep = job.cli.sweep;
    spec.messages = job.cli.messages;
    spec.options = job.cli.options;
    job.adhoc = rn::sim::make_adhoc_experiment(spec);
    job.experiments.push_back(&job.adhoc);
  } else if (job.cli.experiment == "all") {
    for (const auto& id : reg.ids())
      if (!reg.find(id)->slow) job.experiments.push_back(reg.find(id));
  } else {
    const rn::sim::experiment* e = reg.find(job.cli.experiment);
    RN_REQUIRE(e != nullptr, "unknown experiment " + job.cli.experiment);
    job.experiments.push_back(e);
  }
}

struct pass_result {
  double wall_ms = 0;
  std::string results;
  double render_ms = 0;
  double trial_busy_ms = 0;  ///< sum of sim.trial spans
  double capacity_ms = 0;    ///< sum of experiment wall x pool workers
  std::map<std::string, double> experiment_ms;
};

pass_result run_batch(const batch_job& job, bool traced) {
  pass_result out;
  json_value all = json_value::array();
  const std::int64_t t0 = now_ns();
  for (const rn::sim::experiment* e : job.experiments) {
    rn::sim::run_config cfg;
    cfg.trials = job.cli.trials != 0 ? job.cli.trials : e->default_trials;
    cfg.threads = job.cli.threads;
    cfg.seed = job.cli.seed;
    const std::uint64_t sp =
        traced ? g_log.open(0, "sim.experiment." + e->id) : 0;
    g_parent = sp;
    const std::int64_t s0 = now_ns();
    const rn::sim::experiment_result r = rn::sim::run_experiment(*e, cfg);
    const double ms = ms_since(s0);
    out.experiment_ms[e->id] = ms;
    if (traced) {
      g_log.close(sp);
      // Escape-hatch experiments run no declarative trials, so no spans.
      const double busy = sum(g_log.child_ms(sp, "sim.trial"));
      if (busy > 0) {
        out.trial_busy_ms += busy;
        out.capacity_ms += ms * rn::sim::resolve_threads(
                                    cfg.threads, r.scenarios.size() * cfg.trials);
      }
    }
    const std::int64_t r0 = now_ns();
    {
      const std::uint64_t rs = traced ? g_log.open(0, "sim.render") : 0;
      all.push_back(rn::sim::to_json(*e, r));
      if (rs != 0) g_log.close(rs);
    }
    out.render_ms += ms_since(r0);
  }
  const std::int64_t d0 = now_ns();
  out.results = all.dump(2) + "\n";
  out.render_ms += ms_since(d0);
  out.wall_ms = ms_since(t0);
  g_parent = 0;
  return out;
}

// --- the service replay ------------------------------------------------------

struct replay_result {
  double wall_ms = 0;
  std::size_t broken = 0;  ///< unparsable replies, or ok replies missing fields
  std::vector<double> latency_ms, queue_ms, hit_exec_ms, miss_exec_ms;
  std::map<std::string, std::string> payloads;  ///< first payload per key
  std::string hit_line;   ///< a request line answered from cache
  std::string miss_line;  ///< a request line that ran
};

/// Closed loop: `clients` threads each send the next line and wait for its
/// reply. Client latency minus the reply's wall_ms is the queue wait.
void replay(rn::svc::service& svc, const std::vector<std::string>& lines,
            unsigned clients, bool traced, replay_result& out) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> pool;
  for (unsigned c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next++;
        if (i >= lines.size()) return;
        const std::uint64_t sp =
            traced ? g_log.open(g_parent.load(), "client.request") : 0;
        const std::int64_t s0 = now_ns();
        std::string resp;
        try {
          resp = svc.handle(lines[i]);
        } catch (const std::exception& ex) {
          resp = ex.what();
        }
        const std::int64_t s1 = now_ns();
        if (sp != 0) g_log.close(sp);
        json_value doc;
        try {
          doc = rn::sim::parse_json(resp);
        } catch (const std::exception&) {
        }
        const std::lock_guard lock(mu);
        const double lat = static_cast<double>(s1 - s0) / 1e6;
        out.latency_ms.push_back(lat);
        if (doc.type() != json_value::kind::object) {
          ++out.broken;
          continue;
        }
        const json_value* status = doc.find("status");
        if (status == nullptr || status->as_string() != "ok") continue;
        const json_value* wall = doc.find("wall_ms");
        const json_value* cache = doc.find("cache");
        const json_value* key = doc.find("key");
        const json_value* payload = doc.find("payload");
        if (wall == nullptr || cache == nullptr || key == nullptr ||
            payload == nullptr) {
          ++out.broken;
          continue;
        }
        const double exec = wall->as_number();
        out.queue_ms.push_back(std::max(0.0, lat - exec));
        if (cache->as_string() == "hit") {
          out.hit_exec_ms.push_back(exec);
          if (out.hit_line.empty()) out.hit_line = lines[i];
        } else {
          out.miss_exec_ms.push_back(exec);
          if (out.miss_line.empty()) out.miss_line = lines[i];
        }
        out.payloads.try_emplace(key->as_string(), payload->as_string());
        if (sp != 0)
          g_log.add(sp, "svc.execute",
                    s1 - static_cast<std::int64_t>(exec * 1e6), s1);
      }
    });
  }
  for (auto& t : pool) t.join();
  out.wall_ms = ms_since(t0);
}

/// Value of one counter in the Prometheus text, or -1 when it is absent.
double prometheus_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0)
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
  }
  return -1;
}

/// Replay numbers plus the service's own counters; `svc.handle_hit_us` is
/// probed after this so its hits do not count in the hit ratio.
void svc_metrics(const rn::svc::service& svc, const replay_result& r,
                 json_value& m) {
  m["svc.latency_p50_ms"] = quantile(r.latency_ms, 0.5);
  m["svc.latency_p99_ms"] = quantile(r.latency_ms, 0.99);
  m["svc.queue_wait_p50_ms"] = quantile(r.queue_ms, 0.5);
  m["svc.queue_wait_p90_ms"] = quantile(r.queue_ms, 0.9);
  m["svc.exec_hit_ms"] = quantile(r.hit_exec_ms, 0.5);
  m["svc.exec_miss_ms"] = quantile(r.miss_exec_ms, 0.5);
  const std::string text = svc.metrics_text();
  const double hits = prometheus_value(text, "rn_cache_hits_total");
  const double misses = prometheus_value(text, "rn_cache_misses_total");
  const double reqs = prometheus_value(text, "rn_requests_total");
  const double errs = prometheus_value(text, "rn_requests_error_total");
  m["svc.cache_hit_ratio"] =
      hits >= 0 && misses >= 0 && hits + misses > 0 ? hits / (hits + misses)
                                                    : 0.0;
  m["svc.error_frac"] = reqs > 0 && errs >= 0 ? errs / reqs : 0.0;
}

/// Median latency of answering `line` from cache through service::handle,
/// over 200 calls or 0.3 s, whichever ends first. A hit still validates the
/// ad-hoc spec, which builds its graph, so big specs get few calls.
double handle_hit_us(rn::svc::service& svc, const std::string& line) {
  if (line.empty()) return 0.0;
  std::vector<double> us;
  const std::int64_t end = now_ns() + 300'000'000;
  while (us.size() < 200 && (us.size() < 3 || now_ns() < end)) {
    const std::int64_t t0 = now_ns();
    (void)svc.handle(line);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return quantile(us, 0.5);
}

std::string payload_map_json(const std::map<std::string, std::string>& p) {
  json_value o = json_value::object();
  for (const auto& [k, v] : p) o[k] = v;
  return o.dump(2) + "\n";
}

/// The batch job as service requests: one run per experiment.
std::vector<std::string> job_requests(const batch_job& job) {
  std::vector<std::string> lines;
  for (const rn::sim::experiment* e : job.experiments) {
    json_value r = json_value::object();
    r["id"] = static_cast<std::uint64_t>(lines.size() + 1);
    r["method"] = "run";
    if (e == &job.adhoc) {
      r["topology"] = job.cli.topology;
      if (!job.cli.protocols.empty()) r["protocols"] = job.cli.protocols;
      if (!job.cli.sweep.empty()) r["sweep"] = job.cli.sweep;
      if (!job.cli.options.empty()) r["options"] = job.cli.options;
      r["messages"] = static_cast<std::uint64_t>(job.cli.messages);
    } else {
      r["experiment"] = e->id;
    }
    if (job.cli.trials != 0)
      r["trials"] = static_cast<std::uint64_t>(job.cli.trials);
    r["seed"] = job.cli.seed;
    lines.push_back(r.dump());
  }
  return lines;
}

/// Runs one request line (an experiment id or an ad-hoc spec) outside the
/// service and times what the service does after the run: to_json plus the
/// pretty-printed dump.
double render_probe_ms(const std::string& line) {
  const rn::svc::request req = rn::svc::parse_request(line);
  rn::sim::experiment adhoc;
  const rn::sim::experiment* found = &adhoc;
  if (req.experiment.empty()) {
    adhoc = rn::sim::make_adhoc_experiment(req.adhoc);
  } else {
    found = rn::sim::registry::instance().find(req.experiment);
    RN_REQUIRE(found != nullptr, "unknown experiment " + req.experiment);
  }
  const rn::sim::experiment& e = *found;
  rn::sim::run_config cfg;
  cfg.trials = req.trials != 0 ? req.trials : e.default_trials;
  cfg.threads = 1;
  cfg.seed = req.seed;
  const rn::sim::experiment_result r = rn::sim::run_experiment(e, cfg);
  const scoped_span s(0, "sim.render");
  const std::int64_t t0 = now_ns();
  json_value arr = json_value::array();
  arr.push_back(rn::sim::to_json(e, r));
  const std::string payload = arr.dump(2) + "\n";
  return ms_since(t0);
}

// --- pass 2: layer probes ----------------------------------------------------

/// e1's D = 8 graph: the fixed small graph of the per-round and protocol
/// probes.
rn::graph::topology_spec small_spec() {
  rn::graph::topology_spec s;
  s.kind = "layered";
  s.params = {{"depth", 8}, {"width", 30}, {"edge_prob", 0.4}};
  s.seed = 1;
  return s;
}

struct walk_numbers {
  double ns_per_edge = 0;
  double ns_per_round = 0;
};

/// Steps synthetic Decay-density transmit sets (each node transmits with
/// probability 2^-i in round i of a sweep) until 0.2 s of stepping is spent.
walk_numbers walk_probe(const rn::graph::graph& g, unsigned team,
                        const std::string& name) {
  const scoped_span s(0, name);
  rn::radio::network net(g, rn::radio::model{});
  if (team >= 2) net.enable_intra_trial(team);
  const rn::radio::packet pkt = rn::radio::packet::make_noise();
  const std::size_t n = g.node_count();
  const int levels =
      std::max(1, static_cast<int>(std::ceil(std::log2(static_cast<double>(n)))));
  rn::rng r = rn::rng::for_stream(1, 0);
  std::vector<rn::radio::round_buffer> rounds(static_cast<std::size_t>(levels));
  std::int64_t sweep_volume = 0;
  for (int i = 0; i < levels; ++i) {
    const double p = std::ldexp(1.0, -(i + 1));
    for (rn::node_id v = 0; v < n; ++v) {
      if (!r.bernoulli(p)) continue;
      rounds[static_cast<std::size_t>(i)].add(v, pkt);
      sweep_volume += static_cast<std::int64_t>(g.degree(v));
    }
  }
  std::int64_t ns = 0;
  std::int64_t volume = 0;
  std::int64_t stepped = 0;
  while (ns < 200'000'000) {
    for (const auto& txs : rounds) {
      const std::int64_t t0 = now_ns();
      net.step(txs, [](const rn::radio::reception&) {});
      ns += now_ns() - t0;
      ++stepped;
    }
    volume += sweep_volume;
  }
  walk_numbers w;
  w.ns_per_edge = volume > 0 ? static_cast<double>(ns) / static_cast<double>(volume) : 0.0;
  w.ns_per_round = static_cast<double>(ns) / static_cast<double>(stepped);
  return w;
}

rn::core::options probe_options() {
  rn::core::options o;
  o.prm = rn::core::params::fast();
  o.seed = 1;
  o.fast_forward = true;
  return o;
}

void core_probes(json_value& m) {
  const rn::graph::graph g = rn::graph::build_topology(small_spec());
  const auto& reg = rn::core::protocol_registry::instance();
  for (const std::string& id : reg.ids()) {
    const rn::core::broadcast_workload w{0, reg.find(id)->multi_message ? 4u : 1u};
    std::vector<double> ms;
    double rounds = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const scoped_span s(0, "core.run." + id);
      const std::int64_t t0 = now_ns();
      const auto out = rn::core::run_broadcast(g, id, w, probe_options());
      ms.push_back(ms_since(t0));
      rounds = static_cast<double>(out.base.rounds_to_complete);
    }
    m["core.run_ms." + id] = quantile(ms, 0.5);
    m["core.rounds." + id] = rounds;
  }
}

struct dist_window {
  rn::dist::session_totals before;
  std::string trace;
};

void dist_metrics(const rn::dist::session& fleet, const dist_window& w,
                  double spawn_ms, json_value& m) {
  const rn::dist::session_totals after = fleet.totals();
  const double rounds = static_cast<double>(after.rounds - w.before.rounds);
  const std::vector<double> walk = g_log.durations_ms(w.trace, "dist.walk_round");
  std::vector<double> walk_us;
  for (const double x : walk) walk_us.push_back(x * 1e3);
  std::int64_t rank_peak = 0;
  for (const std::int64_t kb : after.peak_rss_kb_per_rank)
    rank_peak = std::max(rank_peak, kb);
  m["dist.spawn_ms"] = spawn_ms;
  m["dist.trial_setup_ms"] =
      quantile(g_log.durations_ms(w.trace, "dist.trial_setup"), 0.5);
  m["dist.walk_round_p50_us"] = quantile(walk_us, 0.5);
  m["dist.walk_round_p99_us"] = quantile(walk_us, 0.99);
  m["dist.merge_ms"] = after.merge_wall_ms - w.before.merge_wall_ms;
  m["dist.bytes_sent_per_round"] =
      rounds > 0 ? static_cast<double>(after.bytes_sent - w.before.bytes_sent) / rounds : 0.0;
  m["dist.bytes_recv_per_round"] =
      rounds > 0 ? static_cast<double>(after.bytes_received - w.before.bytes_received) / rounds
                 : 0.0;
  m["dist.rank_peak_rss_mb"] = static_cast<double>(rank_peak) / 1024.0;
  m["dist.rank_restarts"] =
      static_cast<double>(after.rank_restarts - w.before.rank_restarts);
}

/// Spawns a rank fleet inside a `dist.spawn` span; `spawn_ms` gets its time.
std::unique_ptr<rn::dist::session> spawn_fleet(unsigned ranks, unsigned intra,
                                               double& spawn_ms) {
  rn::dist::session_options o;
  o.ranks = ranks;
  o.intra_trial_threads = std::max(1u, intra);
  // Ranks re-exec this binary, which answers --rn-worker-fd below.
  o.worker_exec = "/proc/self/exe";
  const scoped_span s(0, "dist.spawn");
  const std::int64_t t0 = now_ns();
  auto fleet = std::make_unique<rn::dist::session>(o);
  spawn_ms = ms_since(t0);
  return fleet;
}

// --- main --------------------------------------------------------------------

struct options {
  std::string out;
  std::string requests;
  unsigned ranks = 0;
  unsigned clients = 4;
  rn::svc::service_config svc;
  double seconds = 10;
  std::vector<std::string> job;
};

bool parse_options(int argc, char** argv, options& o) {
  o.svc.workers = 2;
  o.svc.threads_per_request = 1;
  o.svc.cache_entries = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--") {
      o.job.assign(argv + i + 1, argv + argc);
      break;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--out") o.out = v;
    else if (a == "--requests") o.requests = v;
    else if (a == "--ranks") o.ranks = static_cast<unsigned>(std::stoul(v));
    else if (a == "--clients") o.clients = static_cast<unsigned>(std::stoul(v));
    else if (a == "--workers") o.svc.workers = static_cast<unsigned>(std::stoul(v));
    else if (a == "--threads") o.svc.threads_per_request = static_cast<unsigned>(std::stoul(v));
    else if (a == "--cache") o.svc.cache_entries = std::stoul(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else return false;
  }
  return !o.out.empty() && (o.requests.empty() != o.job.empty()) &&
         o.clients >= 1;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  RN_REQUIRE(static_cast<bool>(f), "cannot write " + path);
  f << text;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  RN_REQUIRE(static_cast<bool>(f), "cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

int run(const options& opt) {
  json_value m = json_value::object();
  json_value extra = json_value::object();
  bool same = true;

  std::unique_ptr<rn::dist::session> fleet;
  double spawn_ms = 0;
  batch_job job;
  const bool serve = !opt.requests.empty();
  if (!serve) {
    parse_job(opt.job, job);
    rn::sim::set_fast_forward(!job.cli.no_fast_forward);
    rn::radio::set_worker_budget(job.cli.threads);
    rn::sim::set_intra_trial_threads(job.cli.intra_trial_threads);
    if (opt.ranks > 0) {
      g_log.set_trace("setup");
      fleet = spawn_fleet(opt.ranks, job.cli.intra_trial_threads, spawn_ms);
    }
  }
  trace_hook tracer(fleet.get());

  // Pass 1: an untimed warm-up, then untraced and traced passes alternate
  // until the time budget is spent (at least one pair, at most four).
  const std::vector<std::string> lines =
      serve ? read_lines(opt.requests) : std::vector<std::string>{};
  std::vector<double> untraced_ms, traced_ms;
  std::string reference;
  pass_result last;
  replay_result last_replay;
  std::unique_ptr<rn::svc::service> last_svc;
  rn::sim::engine_snapshot eng0{}, eng1{};
  rn::sim::shard_snapshot sh0, sh1;
  dist_window fleet_window;
  std::string last_trace;
  const auto same_work = [&](bool traced, const std::string& trace) {
    g_log.set_trace(trace);
    if (traced) {
      last_trace = trace;
      rn::sim::set_trial_graph_hook(&tracer);
      eng0 = rn::sim::engine_counters();
      sh0 = rn::sim::shard_counters();
      if (fleet) fleet_window = {fleet->totals(), trace};
    } else if (fleet) {
      fleet->install();
    }
    std::string results;
    double wall = 0;
    if (serve) {
      auto svc = std::make_unique<rn::svc::service>(opt.svc);
      replay_result r;
      const std::uint64_t sp = traced ? g_log.open(0, "svc.replay") : 0;
      g_parent = sp;
      replay(*svc, lines, opt.clients, traced, r);
      if (sp != 0) g_log.close(sp);
      g_parent = 0;
      wall = r.wall_ms;
      results = payload_map_json(r.payloads);
      same = same && r.broken == 0;
      if (traced) {
        last_replay = std::move(r);
        last_svc = std::move(svc);
      }
    } else {
      pass_result p = run_batch(job, traced);
      wall = p.wall_ms;
      results = std::move(p.results);
      if (traced) last = std::move(p);
    }
    if (traced) {
      rn::sim::set_trial_graph_hook(nullptr);
      eng1 = rn::sim::engine_counters();
      sh1 = rn::sim::shard_counters();
    } else if (fleet) {
      fleet->uninstall();
    }
    if (reference.empty()) reference = results;
    same = same && results == reference;
    return wall;
  };
  const std::int64_t budget_end =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  (void)same_work(false, "same-work.warm-up");
  for (int pair = 0; pair < 4; ++pair) {
    const std::string n = std::to_string(pair);
    untraced_ms.push_back(same_work(false, "same-work.untraced." + n));
    traced_ms.push_back(same_work(true, "same-work.traced." + n));
    if (now_ns() >= budget_end) break;
  }
  write_file(opt.out + "/results.json", reference);

  m["trace.overhead_frac"] =
      quantile(traced_ms, 0.5) / quantile(untraced_ms, 0.5) - 1.0;
  m["sim.run_ms"] = traced_ms.back();
  m["sim.trial_ms"] = quantile(g_log.durations_ms(last_trace, "sim.trial"), 0.5);
  m["radio.stepped_rounds"] =
      static_cast<double>(eng1.stepped_rounds - eng0.stepped_rounds);
  m["radio.skipped_rounds"] =
      static_cast<double>(eng1.skipped_rounds - eng0.skipped_rounds);
  m["radio.simd_rounds"] =
      static_cast<double>(eng1.simd_stepped_rounds - eng0.simd_stepped_rounds);
  m["radio.parallel_rounds"] =
      static_cast<double>(sh1.parallel_rounds - sh0.parallel_rounds);
  std::vector<double> slot_ms;
  for (std::size_t s = 0; s < sh1.busy_ns.size(); ++s) {
    const std::int64_t prev = s < sh0.busy_ns.size() ? sh0.busy_ns[s] : 0;
    slot_ms.push_back(static_cast<double>(sh1.busy_ns[s] - prev) / 1e6);
  }
  // Busy time summed over team slots, per ms of pass wall: 0 without teams.
  const double busy = sum(slot_ms);
  m["radio.shard_busy_frac"] = busy / traced_ms.back();
  m["radio.shard_imbalance"] =
      busy > 0 ? *std::max_element(slot_ms.begin(), slot_ms.end()) /
                     (busy / static_cast<double>(slot_ms.size()))
               : 0.0;
  if (serve) {
    m["sim.pool_util"] =
        sum(g_log.durations_ms(last_trace, "sim.trial")) /
        (last_replay.wall_ms * opt.svc.workers *
         std::max(1u, opt.svc.threads_per_request));
  } else {
    m["sim.pool_util"] =
        last.capacity_ms > 0 ? last.trial_busy_ms / last.capacity_ms : 0.0;
    m["sim.render_ms"] = last.render_ms;
    json_value per = json_value::object();
    for (const auto& [id, ms] : last.experiment_ms) per[id] = ms;
    extra["experiment_ms"] = std::move(per);
  }

  // Pass 2: layer probes over the captured specs.
  g_log.set_trace("probes");
  std::vector<captured_spec> specs = tracer.captured();
  if (specs.empty()) {
    const rn::graph::graph g = rn::graph::build_topology(small_spec());
    specs.push_back({small_spec(), g.node_count(), g.edge_count()});
  }
  double build_ms = 0, partition_ms = 0, ctor_ms = 0, gst_ms = 0;
  std::size_t edges = 0;
  std::size_t largest = 0;
  json_value cap = json_value::array();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const captured_spec& c = specs[i];
    if (c.edges > specs[largest].edges) largest = i;
    json_value row = json_value::object();
    row["spec"] = c.spec.to_string();
    row["nodes"] = static_cast<std::uint64_t>(c.nodes);
    row["edges"] = static_cast<std::uint64_t>(c.edges);
    cap.push_back(std::move(row));

    std::int64_t t0 = now_ns();
    std::unique_ptr<rn::graph::graph> g;
    {
      const scoped_span s(0, "graph.build");
      g = std::make_unique<rn::graph::graph>(rn::graph::build_topology(c.spec));
    }
    build_ms += ms_since(t0);
    edges += g->edge_count();

    const auto all_edges = g->edges();
    const rn::graph::edge_source source = [&all_edges](const rn::graph::edge_sink& sink) {
      for (const auto& [u, v] : all_edges) sink(u, v);
    };
    constexpr unsigned kBlocks = rn::core::kChannelContractBlocks;
    constexpr unsigned kRanks = 3;
    t0 = now_ns();
    for (unsigned r = 0; r < kRanks; ++r) {
      const scoped_span s(0, "graph.partition");
      (void)rn::graph::partitioned_view::from_edge_source(
          g->node_count(), source, kBlocks, kBlocks * r / kRanks,
          kBlocks * (r + 1) / kRanks);
    }
    partition_ms += ms_since(t0);

    t0 = now_ns();
    {
      const scoped_span s(0, "radio.ctor");
      const rn::radio::network net(*g, rn::radio::model{});
    }
    ctor_ms += ms_since(t0);

    t0 = now_ns();
    {
      const scoped_span s(0, "core.gst_build");
      (void)rn::core::build_gst_centralized(*g, 0);
    }
    gst_ms += ms_since(t0);
  }
  extra["captured"] = std::move(cap);
  m["graph.build_ms"] = build_ms;
  m["graph.build_ns_per_edge"] =
      edges > 0 ? build_ms * 1e6 / static_cast<double>(edges) : 0.0;
  m["graph.partition_ms"] = partition_ms;
  m["radio.ctor_ms"] = ctor_ms;
  m["core.gst_build_ms"] = gst_ms;

  const captured_spec& probe = specs[largest];
  extra["probe_graph"] = probe.spec.to_string();
  {
    const rn::graph::graph g = rn::graph::build_topology(probe.spec);
    const unsigned team = serve ? 1 : job.cli.intra_trial_threads;
    m["radio.walk_ns_per_edge"] = walk_probe(g, team, "radio.walk").ns_per_edge;
  }
  {
    const rn::graph::graph g = rn::graph::build_topology(small_spec());
    m["radio.round_ns_small"] = walk_probe(g, 1, "radio.walk_small").ns_per_round;
  }
  core_probes(m);

  if (fleet) {
    dist_metrics(*fleet, fleet_window, spawn_ms, m);
  } else {
    g_log.set_trace("probe.dist");
    double probe_spawn_ms = 0;
    const auto probe_fleet = spawn_fleet(3, 1, probe_spawn_ms);
    trace_hook hook(probe_fleet.get());
    const dist_window w{probe_fleet->totals(), "probe.dist"};
    const rn::graph::graph g = rn::graph::build_topology(probe.spec);
    hook.trial_begin(probe.spec, g);
    try {
      (void)rn::core::run_broadcast(g, "decay", {0, 1}, probe_options());
    } catch (...) {
      hook.trial_end(g);
      throw;
    }
    hook.trial_end(g);
    dist_metrics(*probe_fleet, w, probe_spawn_ms, m);
  }

  if (serve) {
    svc_metrics(*last_svc, last_replay, m);
    m["svc.handle_hit_us"] = handle_hit_us(*last_svc, last_replay.hit_line);
    m["sim.render_ms"] =
        last_replay.miss_line.empty() ? 0.0 : render_probe_ms(last_replay.miss_line);
  } else {
    // The batch job submitted to the service twice: cold, then from cache.
    g_log.set_trace("probe.svc");
    rn::svc::service_config cfg;
    cfg.workers = 2;
    cfg.threads_per_request = std::max(1u, job.cli.threads / 2);
    cfg.cache_entries = 64;
    rn::svc::service svc(cfg);
    const std::vector<std::string> reqs = job_requests(job);
    replay_result r;
    replay(svc, reqs, opt.clients, true, r);
    replay(svc, reqs, opt.clients, true, r);
    svc_metrics(svc, r, m);
    m["svc.handle_hit_us"] = handle_hit_us(svc, r.hit_line);
  }

  json_value layers = json_value::object();
  layers["schema"] = "rn-perf-layers-v1";
  layers["same_results"] = same;
  layers["simd"] = rn::radio::to_string(rn::radio::active_simd_level());
  layers["metrics"] = std::move(m);
  layers["extra"] = std::move(extra);
  write_file(opt.out + "/layers.json", layers.dump(2) + "\n");
  write_file(opt.out + "/spans.json", g_log.to_json().dump() + "\n");
  if (!same) {
    std::cerr << "layer_trace: traced and untraced passes disagree\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Rank entry: the dist session re-execs this binary per worker rank.
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string("--rn-worker-fd") == argv[i])
      return rn::dist::worker_main(std::atoi(argv[i + 1]));

  try {
    options opt;
    if (!parse_options(argc, argv, opt)) {
      std::cerr << "usage: layer_trace --out DIR [--ranks R] [--seconds S] -- "
                   "<bench_suite args>\n"
                   "       layer_trace --out DIR --requests FILE [--clients C] "
                   "[--workers W] [--threads T] [--cache N] [--seconds S]\n";
      return 2;
    }
    rn::bench::register_all();
    return run(opt);
  } catch (const std::exception& ex) {
    std::cerr << "layer_trace: " << ex.what() << "\n";
    return 2;
  }
}
