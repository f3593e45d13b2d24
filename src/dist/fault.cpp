#include "dist/fault.h"

#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/text.h"

namespace rn::dist {

namespace {

/// "key=value" -> (key, value); throws on a missing '='.
std::pair<std::string, std::string> split_kv(const std::string& field,
                                             const std::string& entry) {
  const auto eq = field.find('=');
  RN_CHECK_INPUT(eq != std::string::npos && eq > 0,
                 "fault plan entry '" + entry + "': field '" + field +
                     "' is not key=value");
  return {field.substr(0, eq), field.substr(eq + 1)};
}

/// A whole decimal string (parse_u64: no sign, blank or suffix) of at
/// most 2^32 - 1.
std::uint32_t parse_u32(const std::string& value, const std::string& entry) {
  std::uint64_t v = 0;
  RN_CHECK_INPUT(parse_u64(value, v) &&
                     v <= std::numeric_limits<std::uint32_t>::max(),
                 "fault plan entry '" + entry + "': bad number '" + value +
                     "'");
  return static_cast<std::uint32_t>(v);
}

}  // namespace

fault_plan fault_plan::parse(const std::string& text) {
  fault_plan plan;
  std::size_t at = 0;
  while (at < text.size()) {
    const auto semi = text.find(';', at);
    const std::string entry =
        text.substr(at, semi == std::string::npos ? semi : semi - at);
    at = semi == std::string::npos ? text.size() : semi + 1;
    if (entry.empty()) continue;

    const auto colon = entry.find(':');
    RN_CHECK_INPUT(colon != std::string::npos,
                   "fault plan entry '" + entry +
                       "' needs kind:key=value,... (kinds: kill, drop, "
                       "truncate, delay)");
    const std::string kind = entry.substr(0, colon);
    fault_spec spec;
    if (kind == "kill") {
      spec.kind = fault_kind::kill;
    } else if (kind == "drop") {
      spec.kind = fault_kind::drop;
    } else if (kind == "truncate") {
      spec.kind = fault_kind::truncate;
    } else if (kind == "delay") {
      spec.kind = fault_kind::delay;
    } else {
      RN_CHECK_INPUT(false, "fault plan entry '" + entry +
                                "': unknown kind '" + kind + "'");
    }

    bool have_rank = false, have_trial = false, have_round = false;
    std::size_t fat = colon + 1;
    while (fat <= entry.size()) {
      const auto comma = entry.find(',', fat);
      const std::string field = entry.substr(
          fat, comma == std::string::npos ? comma : comma - fat);
      fat = comma == std::string::npos ? entry.size() + 1 : comma + 1;
      if (field.empty()) continue;
      const auto [key, value] = split_kv(field, entry);
      if (key == "rank") {
        spec.rank = parse_u32(value, entry);
        have_rank = true;
      } else if (key == "trial") {
        spec.trial = parse_u32(value, entry);
        have_trial = true;
      } else if (key == "round") {
        spec.round = parse_u32(value, entry);
        have_round = true;
      } else if (key == "ms") {
        spec.arg_ms = parse_u32(value, entry);
      } else {
        RN_CHECK_INPUT(false, "fault plan entry '" + entry +
                                  "': unknown key '" + key + "'");
      }
    }
    RN_CHECK_INPUT(have_rank && have_trial && have_round,
                   "fault plan entry '" + entry +
                       "' needs rank=, trial= and round=");
    RN_CHECK_INPUT(spec.kind != fault_kind::delay || spec.arg_ms > 0,
                   "fault plan entry '" + entry + "': delay needs ms=");
    plan.specs_.push_back(spec);
  }
  return plan;
}

const fault_spec* fault_plan::take(unsigned rank, std::uint32_t trial,
                                   std::uint32_t round) {
  for (auto& spec : specs_) {
    if (spec.fired || spec.rank != rank || spec.trial != trial ||
        spec.round != round)
      continue;
    spec.fired = true;
    return &spec;
  }
  return nullptr;
}

}  // namespace rn::dist
