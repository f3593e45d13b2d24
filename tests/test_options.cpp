// core::options canonical text form (opt-v1): print/parse round-trip,
// default elision, and structured rejection of malformed strings.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rn::core
