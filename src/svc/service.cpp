#include "svc/service.h"

#include <algorithm>
#include <future>
#include <memory>
#include <utility>

#include "common/check.h"
#include "sim/adhoc.h"
#include "sim/engine.h"

namespace rn::svc {

namespace {

/// Max-heap order: higher priority first, then earlier arrival. Returns
/// whether `a` is *worse* than `b` (std::push_heap convention).
bool job_after(const int pa, const std::uint64_t sa, const int pb,
               const std::uint64_t sb) {
  if (pa != pb) return pa < pb;
  return sa > sb;
}

}  // namespace

service::service(service_config cfg) : cfg_(cfg), cache_(cfg.cache_entries) {
  RN_REQUIRE(cfg_.workers >= 1, "service needs at least one worker");
  RN_REQUIRE(cfg_.max_trials >= 1, "service needs max_trials >= 1");
  if (!cfg_.cache_file.empty())
    cache_.load(cfg_.cache_file);  // cold start on miss/corruption by design
  start_ = std::chrono::steady_clock::now();  // rn-lint: allow(R1) service uptime anchor for Prometheus gauges, never results JSON
  register_metrics();
  pool_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i)
    pool_.emplace_back([this] { worker_loop(); });
}

service::~service() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : pool_) t.join();
  // Snapshot after the pool joins: every queued run has completed and
  // put() its payload, so the file holds the final warm set.
  if (!cfg_.cache_file.empty()) cache_.save(cfg_.cache_file);
}

void service::register_metrics() {
  requests_ = &registry_.add_counter("rn_requests_total",
                                     "Request lines accepted.");
  requests_ok_ = &registry_.add_counter("rn_requests_ok_total",
                                        "Requests answered with status=ok.");
  requests_error_ = &registry_.add_counter(
      "rn_requests_error_total", "Requests answered with status=error.");
  runs_ = &registry_.add_counter("rn_runs_total",
                                 "Experiments executed (cache misses).");
  registry_.add_counter_fn("rn_cache_hits_total",
                           "Result-cache lookups answered from cache.",
                           [this] { return double(cache_.hits()); });
  registry_.add_counter_fn("rn_cache_misses_total",
                           "Result-cache lookups that required a run.",
                           [this] { return double(cache_.misses()); });
  registry_.add_counter_fn("rn_cache_evictions_total",
                           "Payloads evicted by LRU capacity.",
                           [this] { return double(cache_.evictions()); });
  registry_.add_gauge("rn_cache_entries", "Payloads currently cached.",
                      [this] { return double(cache_.size()); });
  registry_.add_gauge("rn_queue_depth", "Run requests waiting for a worker.",
                      [this] {
                        std::lock_guard<std::mutex> lock(mu_);
                        return double(queue_.size());
                      });
  registry_.add_gauge("rn_inflight_runs", "Run requests currently executing.",
                      [this] {
                        std::lock_guard<std::mutex> lock(mu_);
                        return double(inflight_);
                      });
  registry_.add_gauge("rn_workers", "Worker threads in the scheduler pool.",
                      [this] { return double(cfg_.workers); });
  registry_.add_counter_fn(
      "rn_engine_stepped_rounds_total",
      "Radio-engine rounds resolved by full channel stepping.",
      [] { return double(sim::engine_counters().stepped_rounds); });
  registry_.add_counter_fn(
      "rn_engine_skipped_rounds_total",
      "Radio-engine rounds elided by fast-forward.",
      [] { return double(sim::engine_counters().skipped_rounds); });
  registry_.add_gauge("rn_rounds_per_second",
                      "Engine rounds (stepped + skipped) per uptime second.",
                      [this] {
                        const auto t = sim::engine_counters();
                        const double up =
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_)  // rn-lint: allow(R1) uptime-rate gauge (Prometheus metrics only)
                                .count();
                        const double rounds =
                            double(t.stepped_rounds) + double(t.skipped_rounds);
                        return up > 0 ? rounds / up : 0.0;
                      });
  registry_.add_counter_fn(
      "rn_shard_busy_seconds_total",
      "Busy time across intra-trial shard team slots.", [] {
        const auto t = sim::shard_counters();
        double ns = 0;
        for (const auto b : t.busy_ns) ns += double(b);
        return ns / 1e9;
      });
  registry_.add_gauge("rn_peak_rss_kb",
                      "Monotone process-lifetime peak resident set (kB).",
                      [] { return double(sim::process_peak_rss_kb()); });
  registry_.add_gauge("rn_current_rss_kb", "Current resident set (kB).",
                      [] { return double(sim::current_rss_kb()); });
  registry_.add_gauge("rn_uptime_seconds", "Seconds since service start.",
                      [this] {
                        return std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start_)  // rn-lint: allow(R1) rn_uptime_seconds gauge (Prometheus metrics only)
                            .count();
                      });
}

std::string service::metrics_text() const { return registry_.render(); }

bool service::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

void service::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && inflight_ == 0; });
}

void service::submit(const std::string& line, respond_fn respond) {
  requests_->add(1);
  request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& ex) {
    requests_error_->add(1);
    const std::string msg = ex.what();
    // parse_json reports "bad JSON at offset N"; everything after a
    // successful parse is a shape/field problem.
    const bool not_json = msg.find("bad JSON") != std::string::npos;
    respond(error_response(0, not_json ? kBadJson : kBadRequest, msg));
    return;
  }

  switch (req.what) {
    case method::metrics: {
      sim::json_value r = ok_response(req.id);
      r["metrics"] = metrics_text();
      requests_ok_->add(1);
      respond(r.dump());
      return;
    }
    case method::list: {
      sim::json_value r = ok_response(req.id);
      sim::json_value ids = sim::json_value::array();
      for (const auto& id : sim::registry::instance().ids()) ids.push_back(id);
      r["experiments"] = std::move(ids);
      requests_ok_->add(1);
      respond(r.dump());
      return;
    }
    case method::shutdown: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
      }
      sim::json_value r = ok_response(req.id);
      r["shutdown"] = true;
      requests_ok_->add(1);
      respond(r.dump());
      return;
    }
    case method::run:
      break;
  }

  job jb;
  jb.req = req;
  jb.respond = std::move(respond);
  try {
    if (!req.experiment.empty()) {
      const sim::experiment* e = sim::registry::instance().find(req.experiment);
      RN_REQUIRE(e != nullptr, "unknown experiment '" + req.experiment +
                                   "' (method \"list\" names the registry)");
      jb.e = *e;
      jb.trials = req.trials != 0 ? req.trials : e->default_trials;
      jb.key = "experiment=" + req.experiment +
               ";trials=" + std::to_string(jb.trials) +
               ";seed=" + std::to_string(req.seed);
    } else {
      // Full registry validation (topology kind + params, protocol ids,
      // sweep grammar, options string) happens here, before anything is
      // enqueued — a bad spec never reaches a worker.
      jb.e = sim::make_adhoc_experiment(req.adhoc);
      jb.trials = req.trials != 0 ? req.trials : jb.e.default_trials;
      jb.key = sim::canonical_run_key(req.adhoc, jb.trials, req.seed);
    }
  } catch (const std::exception& ex) {
    requests_error_->add(1);
    jb.respond(error_response(req.id, kBadRequest, ex.what()));
    return;
  }
  if (jb.trials > cfg_.max_trials) {
    requests_error_->add(1);
    jb.respond(error_response(
        req.id, kOverBudget,
        "trials " + std::to_string(jb.trials) + " exceed the server budget " +
            std::to_string(cfg_.max_trials)));
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    jb.seq = next_seq_++;
    queue_.push_back(std::move(jb));
    std::push_heap(queue_.begin(), queue_.end(),
                   [](const job& a, const job& b) {
                     return job_after(a.req.priority, a.seq, b.req.priority,
                                      b.seq);
                   });
  }
  work_cv_.notify_one();
}

std::string service::handle(const std::string& line) {
  auto slot = std::make_shared<std::promise<std::string>>();
  auto got = slot->get_future();
  submit(line, [slot](const std::string& s) { slot->set_value(s); });
  return got.get();
}

void service::worker_loop() {
  for (;;) {
    job jb;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      std::pop_heap(queue_.begin(), queue_.end(),
                    [](const job& a, const job& b) {
                      return job_after(a.req.priority, a.seq, b.req.priority,
                                       b.seq);
                    });
      jb = std::move(queue_.back());
      queue_.pop_back();
      ++inflight_;
    }
    execute(jb);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      if (queue_.empty() && inflight_ == 0) idle_cv_.notify_all();
    }
  }
}

void service::execute(job& jb) {
  const auto t0 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) request wall_ms for the response metadata + metrics, never payload
  std::string payload;
  const char* origin = "hit";
  if (auto cached = cache_.get(jb.key)) {
    payload = std::move(*cached);
  } else {
    origin = "miss";
    runs_->add(1);
    sim::run_config rc;
    rc.trials = jb.trials;
    rc.threads = cfg_.threads_per_request;
    rc.seed = jb.req.seed;
    try {
      const sim::experiment_result result = sim::run_experiment(jb.e, rc);
      sim::json_value arr = sim::json_value::array();
      arr.push_back(sim::to_json(jb.e, result));
      // Exactly what `bench_suite --json` writes: pretty-printed array (even
      // for one experiment) plus trailing newline. The cache stores these
      // bytes, so hit == miss == batch file, byte for byte.
      payload = arr.dump(2);
      payload += "\n";
    } catch (const std::exception& ex) {
      requests_error_->add(1);
      jb.respond(error_response(jb.req.id, kRunFailed, ex.what()));
      return;
    }
    cache_.put(jb.key, payload);
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)  // rn-lint: allow(R1) request wall_ms for the response metadata + metrics, never payload
                             .count();
  sim::json_value r = ok_response(jb.req.id);
  r["cache"] = origin;
  r["key"] = jb.key;
  r["trials"] = std::uint64_t(jb.trials);
  r["seed"] = jb.req.seed;
  r["wall_ms"] = wall_ms;
  r["payload"] = std::move(payload);
  requests_ok_->add(1);
  jb.respond(r.dump());
}

}  // namespace rn::svc
