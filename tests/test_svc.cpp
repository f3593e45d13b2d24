// Broadcast service: request validation error paths, result-cache behavior,
// serve-vs-batch byte identity (including concurrent in-flight requests),
// and the Prometheus metrics exposition.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "out_of_range_specs.h"
#include "sim/adhoc.h"
#include "sim/experiment.h"
#include "sim/json.h"
#include "svc/cache.h"
#include "svc/metrics.h"
#include "svc/service.h"

namespace rn::svc {
namespace {

using sim::json_value;
using sim::parse_json;

/// Parses a response line and returns the named string field ("" if absent).
std::string field(const json_value& doc, const char* key) {
  const json_value* v = doc.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

json_value respond(service& svc, const std::string& line) {
  return parse_json(svc.handle(line));
}

// --- request validation: every bad input is a structured error line -------

class ServiceErrors : public ::testing::Test {
 protected:
  service svc_{service_config{.workers = 1, .cache_entries = 4}};

  void expect_error(const std::string& line, const std::string& code) {
    const json_value doc = respond(svc_, line);
    EXPECT_EQ(field(doc, "status"), "error") << line;
    EXPECT_EQ(field(doc, "code"), code) << line;
    EXPECT_FALSE(field(doc, "error").empty()) << line;
  }
};

TEST_F(ServiceErrors, MalformedJsonLine) {
  expect_error("{\"id\": 1, ", kBadJson);
  expect_error("not json at all", kBadJson);
}

TEST_F(ServiceErrors, NonObjectOrBadShape) {
  expect_error("[1, 2, 3]", kBadRequest);          // not an object
  expect_error("{\"method\": \"frobnicate\"}", kBadRequest);  // unknown method
  expect_error("{\"id\": \"one\"}", kBadRequest);  // mistyped field
  expect_error("{}", kBadRequest);                 // no workload at all
  expect_error(
      "{\"experiment\": \"e1\", \"topology\": \"path:n=8\", "
      "\"protocols\": \"decay\"}",
      kBadRequest);  // both workload forms at once
}

TEST_F(ServiceErrors, RegistryValidationBecomesStructuredErrors) {
  // Unknown topology kind.
  expect_error(
      "{\"topology\": \"moebius:n=8\", \"protocols\": \"decay\"}",
      kBadRequest);
  // Malformed topology parameter string.
  expect_error("{\"topology\": \"path:n\", \"protocols\": \"decay\"}",
               kBadRequest);
  // Unknown parameter name for a known kind.
  expect_error("{\"topology\": \"path:hops=8\", \"protocols\": \"decay\"}",
               kBadRequest);
  // Unknown protocol id.
  expect_error("{\"topology\": \"path:n=8\", \"protocols\": \"warp\"}",
               kBadRequest);
  // Protocol/option mismatch: decay is single-message, messages > 1.
  expect_error(
      "{\"topology\": \"path:n=8\", \"protocols\": \"decay\", "
      "\"messages\": 4}",
      kBadRequest);
  // Malformed options string.
  expect_error(
      "{\"topology\": \"path:n=8\", \"protocols\": \"decay\", "
      "\"options\": \"opt-v1:bogus=1\"}",
      kBadRequest);
  // Unknown registered experiment (tests link no experiment definitions).
  expect_error("{\"experiment\": \"e1\"}", kBadRequest);
}

TEST_F(ServiceErrors, OutOfRangeTopologyValuesAreBadRequests) {
  for (const char* text : test::kOutOfRangeSpecs)
    expect_error(std::string("{\"topology\": \"") + text +
                     "\", \"protocols\": \"decay\"}",
                 kBadRequest);
  // Rejected at submit although only the second sweep point is invalid.
  expect_error(
      "{\"topology\": \"layered:depth=5,width=4\", \"protocols\": "
      "\"decay\", \"sweep\": \"depth=5,0\"}",
      kBadRequest);
}

TEST_F(ServiceErrors, SeedDependentGenerationFailureIsRunFailed) {
  // Valid names and ranges, but no seed connects G(2000, 1e-4): the spec
  // passes validation and the run fails.
  expect_error(
      "{\"topology\": \"gnp:n=2000,p=0.0001\", \"protocols\": "
      "\"decay\", \"trials\": 1}",
      kRunFailed);
  const json_value ok = respond(
      svc_, "{\"topology\": \"path:n=8\", \"protocols\": \"decay\", "
            "\"trials\": 1}");
  EXPECT_EQ(field(ok, "status"), "ok");
}

TEST_F(ServiceErrors, TrialBudgetIsEnforced) {
  service svc(service_config{.workers = 1, .max_trials = 4});
  const json_value doc = parse_json(svc.handle(
      "{\"topology\": \"path:n=8\", \"protocols\": \"decay\", "
      "\"trials\": 5}"));
  EXPECT_EQ(field(doc, "status"), "error");
  EXPECT_EQ(field(doc, "code"), kOverBudget);
}

// --- runs, cache, and byte identity with the batch path -------------------

/// The exact bytes `bench_suite --json` writes for this ad-hoc workload
/// (same builder, same renderer — see sim/cli.cpp).
std::string batch_payload(const std::string& topology,
                          const std::string& protocols, std::size_t trials,
                          std::uint64_t seed) {
  sim::adhoc_spec spec;
  spec.topology = topology;
  spec.protocols = protocols;
  const sim::experiment e = sim::make_adhoc_experiment(spec);
  sim::run_config cfg;
  cfg.trials = trials;
  cfg.seed = seed;
  const sim::experiment_result r = sim::run_experiment(e, cfg);
  json_value all = json_value::array();
  all.push_back(sim::to_json(e, r));
  return all.dump(2) + "\n";
}

TEST(ServiceRuns, CacheHitReturnsByteIdenticalPayload) {
  service svc(service_config{.workers = 1, .cache_entries = 4});
  const std::string line =
      "{\"id\": 7, \"topology\": \"path:n=16\", \"protocols\": \"decay\", "
      "\"trials\": 3, \"seed\": 5}";
  const json_value first = respond(svc, line);
  ASSERT_EQ(field(first, "status"), "ok");
  EXPECT_EQ(field(first, "cache"), "miss");
  const json_value second = respond(svc, line);
  EXPECT_EQ(field(second, "cache"), "hit");
  EXPECT_EQ(field(second, "key"), field(first, "key"));
  EXPECT_EQ(field(second, "payload"), field(first, "payload"));
  EXPECT_EQ(field(first, "payload"), batch_payload("path:n=16", "decay", 3, 5));
}

TEST(ServiceRuns, EquivalentSpecSpellingsShareOneCacheEntry) {
  service svc(service_config{.workers = 1, .cache_entries = 4});
  // Different spelling, same canonical workload: topology params in a
  // different order, options keys scrambled but spelling the same values as
  // the empty-options default (the historical fast profile — note an
  // *explicit* "opt-v1" means core defaults, i.e. the paper profile, and
  // would be a different workload).
  const json_value a = respond(
      svc,
      "{\"topology\": \"grid:rows=4,cols=5\", \"protocols\": \"decay\", "
      "\"trials\": 2}");
  const json_value b = respond(
      svc,
      "{\"topology\": \"grid:cols=5,rows=4\", \"protocols\": \"decay\", "
      "\"trials\": 2, \"options\": "
      "\"opt-v1:schedule_slack=2,fec_overhead=2,epoch_mult=2,"
      "decay_phase_mult=1,recruit_iter_mult=1,recruit_exp_step_mult=1\"}");
  ASSERT_EQ(field(a, "status"), "ok");
  ASSERT_EQ(field(b, "status"), "ok");
  EXPECT_EQ(field(a, "cache"), "miss");
  EXPECT_EQ(field(b, "cache"), "hit");
  EXPECT_EQ(field(a, "key"), field(b, "key"));
}

TEST(ServiceRuns, ConcurrentInFlightRequestsStayByteIdentical) {
  // Two workers, four requests submitted without waiting: two distinct
  // workloads, each twice. However the pool interleaves them, every payload
  // must equal the single-threaded batch rendering of its workload.
  service svc(service_config{.workers = 2, .cache_entries = 8});
  const std::string w1 =
      "{\"topology\": \"path:n=24\", \"protocols\": \"decay\", "
      "\"trials\": 3, \"seed\": 2}";
  const std::string w2 =
      "{\"topology\": \"star:n=24\", \"protocols\": \"decay\", "
      "\"trials\": 3, \"seed\": 2}";

  std::vector<std::string> lines = {w1, w2, w1, w2};
  std::vector<std::future<std::string>> replies;
  std::vector<std::shared_ptr<std::promise<std::string>>> slots;
  for (const auto& line : lines) {
    auto p = std::make_shared<std::promise<std::string>>();
    replies.push_back(p->get_future());
    slots.push_back(p);
    svc.submit(line, [p](const std::string& s) { p->set_value(s); });
  }
  svc.drain();

  const std::string expect1 = batch_payload("path:n=24", "decay", 3, 2);
  const std::string expect2 = batch_payload("star:n=24", "decay", 3, 2);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const json_value doc = parse_json(replies[i].get());
    ASSERT_EQ(field(doc, "status"), "ok") << i;
    EXPECT_EQ(field(doc, "payload"), i % 2 == 0 ? expect1 : expect2) << i;
  }
}

// --- LRU cache ------------------------------------------------------------

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  result_cache cache(2);
  cache.put("a", "A");
  cache.put("b", "B");
  EXPECT_TRUE(cache.get("a").has_value());  // refresh a; b is now LRU
  cache.put("c", "C");                      // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.get("a").value_or(""), "A");
  EXPECT_EQ(cache.get("c").value_or(""), "C");
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
}

// --- snapshot persistence -------------------------------------------------

TEST(ResultCache, SnapshotRoundTripPreservesEntriesAndRecency) {
  const std::string path = ::testing::TempDir() + "rn_cache_roundtrip.snap";
  result_cache a(3);
  a.put("a", "A");
  a.put("b", "B");
  a.put("c", "C");
  EXPECT_TRUE(a.get("a").has_value());  // recency now a > c > b
  ASSERT_TRUE(a.save(path));

  result_cache b(3);
  ASSERT_TRUE(b.load(path));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.get("a").value_or(""), "A");
  EXPECT_EQ(b.get("b").value_or(""), "B");
  EXPECT_EQ(b.get("c").value_or(""), "C");

  // Recency survived the round trip: "b" was coldest at save time, so with
  // no post-load touches it is the entry a fresh insert evicts.
  result_cache c(3);
  ASSERT_TRUE(c.load(path));
  c.put("d", "D");
  EXPECT_FALSE(c.get("b").has_value());
  EXPECT_TRUE(c.get("a").has_value());
  EXPECT_TRUE(c.get("c").has_value());
  std::remove(path.c_str());
}

TEST(ResultCache, SnapshotIntoSmallerCacheKeepsHottest) {
  const std::string path = ::testing::TempDir() + "rn_cache_shrink.snap";
  result_cache big(4);
  big.put("w", "1");
  big.put("x", "2");
  big.put("y", "3");
  big.put("z", "4");  // recency z > y > x > w
  ASSERT_TRUE(big.save(path));

  result_cache small(2);
  ASSERT_TRUE(small.load(path));
  EXPECT_EQ(small.size(), 2u);
  EXPECT_TRUE(small.get("z").has_value());
  EXPECT_TRUE(small.get("y").has_value());
  EXPECT_FALSE(small.get("x").has_value());
  EXPECT_FALSE(small.get("w").has_value());
  std::remove(path.c_str());
}

TEST(ResultCache, CorruptOrMissingSnapshotColdStarts) {
  const std::string path = ::testing::TempDir() + "rn_cache_corrupt.snap";
  std::remove(path.c_str());

  result_cache missing(2);
  EXPECT_FALSE(missing.load(path));  // no file at all
  EXPECT_EQ(missing.size(), 0u);

  {  // wrong version header
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "rn-cache-snapshot-v9\n";
  }
  result_cache wrong_version(2);
  EXPECT_FALSE(wrong_version.load(path));
  EXPECT_EQ(wrong_version.size(), 0u);

  {  // valid header, then a record whose lengths point past EOF
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "rn-cache-snapshot-v1\n";
    const char rec[] = {8, 0, 0, 0, 127, 0, 0, 0, 'k'};
    out.write(rec, sizeof(rec));
  }
  result_cache truncated(2);
  truncated.put("warm", "W");  // load replaces, never merges
  EXPECT_FALSE(truncated.load(path));
  EXPECT_EQ(truncated.size(), 0u);
  std::remove(path.c_str());
}

TEST(ServiceRuns, CacheFileCarriesHitsAcrossRestart) {
  const std::string path = ::testing::TempDir() + "rn_svc_restart.snap";
  std::remove(path.c_str());
  const std::string line =
      "{\"topology\": \"path:n=16\", \"protocols\": \"decay\", "
      "\"trials\": 2, \"seed\": 9}";
  std::string first_payload;
  {
    service svc(service_config{.workers = 1, .cache_entries = 4,
                               .cache_file = path});
    const json_value doc = respond(svc, line);
    ASSERT_EQ(field(doc, "status"), "ok");
    EXPECT_EQ(field(doc, "cache"), "miss");
    first_payload = field(doc, "payload");
  }  // dtor snapshots to `path`
  {
    service svc(service_config{.workers = 1, .cache_entries = 4,
                               .cache_file = path});
    const json_value doc = respond(svc, line);
    ASSERT_EQ(field(doc, "status"), "ok");
    EXPECT_EQ(field(doc, "cache"), "hit") << "warm start lost the snapshot";
    EXPECT_EQ(field(doc, "payload"), first_payload);
  }
  std::remove(path.c_str());
}

// --- metrics --------------------------------------------------------------

/// Checks Prometheus text exposition: HELP/TYPE headers followed by a
/// sample, one metric per triple.
void expect_prometheus_text(const std::string& text) {
  std::size_t pos = 0;
  int samples = 0;
  while (pos < text.size()) {
    const auto help_end = text.find('\n', pos);
    ASSERT_NE(help_end, std::string::npos);
    ASSERT_EQ(text.compare(pos, 7, "# HELP "), 0) << text.substr(pos, 40);
    const auto type_end = text.find('\n', help_end + 1);
    ASSERT_NE(type_end, std::string::npos);
    ASSERT_EQ(text.compare(help_end + 1, 7, "# TYPE "), 0);
    const std::string type_line =
        text.substr(help_end + 1, type_end - help_end - 1);
    ASSERT_TRUE(type_line.ends_with(" counter") ||
                type_line.ends_with(" gauge"))
        << type_line;
    const auto sample_end = text.find('\n', type_end + 1);
    ASSERT_NE(sample_end, std::string::npos);
    const std::string sample =
        text.substr(type_end + 1, sample_end - type_end - 1);
    const auto space = sample.find(' ');
    ASSERT_NE(space, std::string::npos) << sample;
    // Value parses as a number.
    ASSERT_NO_THROW(static_cast<void>(std::stod(sample.substr(space + 1))))
        << sample;
    pos = sample_end + 1;
    ++samples;
  }
  EXPECT_GE(samples, 10);
}

TEST(ServiceMetrics, ExpositionParsesAndCountsCacheTraffic) {
  service svc(service_config{.workers = 1, .cache_entries = 4});
  const std::string line =
      "{\"topology\": \"path:n=12\", \"protocols\": \"decay\", "
      "\"trials\": 2}";
  ASSERT_EQ(field(respond(svc, line), "cache"), "miss");
  ASSERT_EQ(field(respond(svc, line), "cache"), "hit");
  static_cast<void>(svc.handle("{\"method\": \"metrics\"}"));  // also counted

  const std::string text = svc.metrics_text();
  expect_prometheus_text(text);
  EXPECT_NE(text.find("rn_cache_hits_total 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("rn_cache_misses_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("rn_runs_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("rn_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("rn_requests_error_total 0\n"), std::string::npos);
}

TEST(ServiceMetrics, MetricsMethodReturnsTheExposition) {
  service svc(service_config{.workers = 1});
  const json_value doc = respond(svc, "{\"id\": 3, \"method\": \"metrics\"}");
  EXPECT_EQ(field(doc, "status"), "ok");
  expect_prometheus_text(field(doc, "metrics"));
}

TEST(ServiceMethods, ListAndShutdown) {
  service svc(service_config{.workers = 1});
  const json_value listed = respond(svc, "{\"method\": \"list\"}");
  EXPECT_EQ(field(listed, "status"), "ok");
  EXPECT_NE(listed.find("experiments"), nullptr);

  EXPECT_FALSE(svc.shutdown_requested());
  const json_value down = respond(svc, "{\"id\": 9, \"method\": \"shutdown\"}");
  EXPECT_EQ(field(down, "status"), "ok");
  EXPECT_TRUE(svc.shutdown_requested());
}

}  // namespace
}  // namespace rn::svc
