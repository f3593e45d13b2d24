#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/math.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/options.h"
#include "dist/fault.h"
#include "graph/topology.h"

namespace rn {
namespace {

TEST(Math, CeilLog2Values) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_EQ(ceil_log2(1ULL << 62), 62);
}

TEST(Math, CeilLog2RejectsZero) {
  EXPECT_THROW(static_cast<void>(ceil_log2(0)), contract_error);
}

TEST(Math, FloorLog2Values) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(7), 2);
  EXPECT_EQ(floor_log2(8), 3);
}

TEST(Math, LogRangeNeverZero) {
  EXPECT_EQ(log_range(0), 1);
  EXPECT_EQ(log_range(1), 1);
  EXPECT_EQ(log_range(2), 1);
  EXPECT_EQ(log_range(3), 2);
  EXPECT_EQ(log_range(256), 8);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(ceil_div(1, 3), 1);
  EXPECT_EQ(ceil_div(3, 3), 1);
  EXPECT_EQ(ceil_div(4, 3), 2);
  EXPECT_THROW(static_cast<void>(ceil_div(-1, 3)), contract_error);
}

TEST(Rng, Deterministic) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsDiffer) {
  rng a = rng::for_stream(1, 0);
  rng b = rng::for_stream(1, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInBounds) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.uniform(17), 17u);
  EXPECT_THROW(r.uniform(0), contract_error);
}

TEST(Rng, Uniform01Range) {
  rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Pow2ProbabilityIsCalibrated) {
  rng r(11);
  const int trials = 200000;
  int hits = 0;
  for (int i = 0; i < trials; ++i)
    if (r.with_probability_pow2(3)) ++hits;
  const double p = static_cast<double>(hits) / trials;
  EXPECT_NEAR(p, 0.125, 0.01);
}

TEST(Rng, Pow2Extremes) {
  rng r(13);
  EXPECT_TRUE(r.with_probability_pow2(0));
  EXPECT_FALSE(r.with_probability_pow2(64));
  EXPECT_THROW(r.with_probability_pow2(-1), contract_error);
}

TEST(Rng, BernoulliExtremes) {
  rng r(15);
  EXPECT_TRUE(r.bernoulli(1.0));
  EXPECT_FALSE(r.bernoulli(0.0));
}

TEST(Stats, MeanStdDev) {
  sample_stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, Percentiles) {
  sample_stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.9), 90.0, 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Stats, EmptyThrows) {
  sample_stats s;
  EXPECT_THROW(static_cast<void>(s.mean()), contract_error);
  EXPECT_THROW(static_cast<void>(s.percentile(0.5)), contract_error);
}

TEST(Table, AlignsColumns) {
  text_table t({"a", "long-header"});
  t.add_row({"1234", "x"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("1234"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, RejectsBadRow) {
  text_table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), contract_error);
}

TEST(Check, RequireThrowsWithMessage) {
  try {
    RN_REQUIRE(false, "custom context");
    FAIL() << "should have thrown";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
  }
}

// A rejected fault plan, options string or topology spec reaches the user
// (an exit-2 message, an rn_serve bad-request reply) as an input_error: one
// line that names the input, with no contract expression or source location
// in it. build_topology runs the spec checks first, so a bad spec it is
// handed is an input_error too, and so is a gnp or unit_disk spec whose
// draws never connect.
TEST(Check, RejectedInputNamesTheInputNotTheCode) {
  const std::pair<const char*, std::function<void()>> inputs[] = {
      {"-1", [] {
         static_cast<void>(
             dist::fault_plan::parse("kill:rank=-1,trial=0,round=0"));
       }},
      {"d_hat", [] {
         static_cast<void>(core::parse_options("opt-v1:d_hat=3000000000"));
       }},
      {"nosuch", [] {
         graph::check_topology(graph::parse_topology_spec("nosuch:n=3"));
       }},
      {"depht", [] {
         static_cast<void>(graph::build_topology(
             graph::parse_topology_spec("layered:depht=9")));
       }},
      // Valid specs none of whose 64 draws connects: rejected while the
      // graph is generated, not while the spec is parsed, and named in the
      // spec's canonical print.
      {"gnp:n=2000,p=1e-04 never connected in 64 attempts", [] {
         static_cast<void>(graph::build_topology(
             graph::parse_topology_spec("gnp:n=2000,p=0.0001")));
       }},
      {"unit_disk:n=50,radius=0.01 never connected in 64 attempts", [] {
         static_cast<void>(graph::build_topology(
             graph::parse_topology_spec("unit_disk:n=50,radius=0.01")));
       }},
  };
  for (const auto& [named, parse] : inputs) {
    SCOPED_TRACE(named);
    try {
      parse();
      ADD_FAILURE() << "accepted";
    } catch (const input_error& e) {
      const std::string text = e.what();
      EXPECT_NE(text.find(named), std::string::npos) << text;
      EXPECT_EQ(text.find('\n'), std::string::npos) << text;
      EXPECT_EQ(text.find("RN_REQUIRE"), std::string::npos) << text;
      EXPECT_EQ(text.find(".cpp:"), std::string::npos) << text;
    } catch (const contract_error& e) {
      ADD_FAILURE() << "not an input_error: " << e.what();
    }
  }
}

}  // namespace
}  // namespace rn
