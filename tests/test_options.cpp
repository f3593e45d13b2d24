// core::options canonical text form (opt-v1): print/parse round-trip,
// default elision, and structured rejection of malformed strings.
#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "core/api.h"
#include "core/options.h"

namespace rn::core {
namespace {

TEST(Options, DefaultPrintsAsBareVersionTag) {
  EXPECT_EQ(options{}.to_string(), "opt-v1");
  EXPECT_EQ(parse_options("opt-v1"), options{});
}

TEST(Options, NonDefaultFieldsRoundTrip) {
  options o;
  o.n_hat = 4096;
  o.d_hat = 12;
  o.payload_size = 64;
  o.message_seed = 0xdeadbeefcafef00dULL;
  o.prm = params::fast();
  o.prm.schedule_slack = 3.5;

  const options back = parse_options(o.to_string());
  EXPECT_EQ(back, o);
  // Canonical form is a fixed point: printing the parse re-produces it.
  EXPECT_EQ(back.to_string(), o.to_string());
}

TEST(Options, OmittedKeysKeepDefaults) {
  const options o = parse_options("opt-v1:n_hat=100");
  EXPECT_EQ(o.n_hat, 100u);
  EXPECT_EQ(o.payload_size, options{}.payload_size);
  EXPECT_EQ(o.prm, params::paper());
}

TEST(Options, ExecutionFieldsAreExcludedFromTheString) {
  options o;
  o.seed = 42;
  o.fast_forward = true;
  // seed/fast_forward ride outside the canonical string (see options.h);
  // equality still sees them, the text form never does.
  EXPECT_EQ(o.to_string(), "opt-v1");
  const options back = parse_options(o.to_string());
  EXPECT_EQ(back.seed, options{}.seed);
  EXPECT_FALSE(back.fast_forward);
}

TEST(Options, RejectsMalformedStrings) {
  EXPECT_THROW(static_cast<void>(parse_options("")), contract_error);
  EXPECT_THROW(static_cast<void>(parse_options("opt-v0:n_hat=1")),
               contract_error);
  EXPECT_THROW(static_cast<void>(parse_options("opt-v1:bogus_key=1")),
               contract_error);
  EXPECT_THROW(static_cast<void>(parse_options("opt-v1:n_hat")),
               contract_error);
  EXPECT_THROW(static_cast<void>(parse_options("opt-v1:n_hat=abc")),
               contract_error);
  EXPECT_THROW(static_cast<void>(parse_options("opt-v1:=3")), contract_error);
}

TEST(Options, RejectsIntegersAboveTheirFieldsRange) {
  // d_hat is a 32-bit level: a larger value must not wrap (3000000000
  // would read -1294967296) or truncate (4294967296 would read 0).
  EXPECT_THROW(static_cast<void>(parse_options("opt-v1:d_hat=3000000000")),
               contract_error);
  EXPECT_THROW(static_cast<void>(parse_options("opt-v1:d_hat=4294967296")),
               contract_error);
  const options top = parse_options("opt-v1:d_hat=2147483647");
  EXPECT_EQ(top.d_hat, 2147483647);
  EXPECT_EQ(top.to_string(), "opt-v1:d_hat=2147483647");
  EXPECT_EQ(parse_options(top.to_string()), top);
}

TEST(Options, MultipliersAreFiniteAndInRange) {
  // Outside input: a NaN would not round-trip, and an infinite, negative or
  // huge multiplier would overflow the counts and budgets derived from it.
  for (const char* key :
       {"decay_phase_mult", "recruit_iter_mult", "recruit_exp_step_mult",
        "epoch_mult", "schedule_slack", "fec_overhead", "ring_divisor"}) {
    SCOPED_TRACE(key);
    for (const char* bad : {"nan", "inf", "-inf", "-1", "1e300"}) {
      const std::string text = std::string("opt-v1:") + key + "=" + bad;
      try {
        static_cast<void>(parse_options(text));
        ADD_FAILURE() << "parsed " << text;
      } catch (const contract_error& e) {
        EXPECT_NE(std::string(e.what()).find("bad numeric value for option"),
                  std::string::npos)
            << e.what();
      }
    }
    const std::string top = std::string("opt-v1:") + key + "=65536";
    const options o = parse_options(top);
    EXPECT_EQ(o.to_string(), top);
    EXPECT_EQ(parse_options(o.to_string()), o);
  }
}

TEST(Options, IntegralKeysKeepEveryBit) {
  // 2^53 + 1 is not a double, and 2^64 - 1 rounds up to 2^64 as one: both
  // must print from their integer value and parse back to the same options.
  for (const char* text : {"opt-v1:n_hat=9007199254740993",
                           "opt-v1:payload_size=9007199254740993",
                           "opt-v1:n_hat=18446744073709551615"}) {
    const options o = parse_options(text);
    EXPECT_EQ(o.to_string(), text);
    EXPECT_EQ(parse_options(o.to_string()), o);
  }
  options a;
  options b;
  a.n_hat = 9007199254740992ULL;
  b.n_hat = 9007199254740993ULL;
  EXPECT_NE(a.to_string(), b.to_string());
}

}  // namespace
}  // namespace rn::core
