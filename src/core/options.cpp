#include "core/options.h"

#include <cstdlib>
#include <limits>

#include "common/check.h"
#include "common/text.h"

namespace rn::core {

namespace {

/// The canonical key set, in print order. Each key reads and writes one field
/// through accessors so the print and parse sides can never drift apart.
/// Integral fields (sizes, seeds) are read, compared and printed as u64, so
/// no value loses bits to a double; the multipliers are doubles. Every value
/// lies in [0, max]; a multiplier must be finite as well.
struct field {
  std::string_view key;
  bool integral;  ///< parse as u64 (size/seed fields) vs double (multipliers)
  std::uint64_t max;  ///< the largest value the field holds
  std::uint64_t (*get_int)(const options&);  ///< integral fields
  double (*get)(const options&);             ///< the others
  void (*set)(options&, double num, std::uint64_t integer);
};

template <class T>
constexpr std::uint64_t max_of =
    static_cast<std::uint64_t>(std::numeric_limits<T>::max());

/// The largest multiplier. At 2^16 the largest derived count,
/// ceil(recruit_iter_mult * L^2) at L = 64, is 2^28: inside `int`, and every
/// round budget stays inside round_t.
constexpr std::uint64_t kMaxMultiplier = std::uint64_t{1} << 16;

constexpr field kFields[] = {
    {"n_hat", true, max_of<std::size_t>,
     [](const options& o) { return static_cast<std::uint64_t>(o.n_hat); }, nullptr,
     [](options& o, double, std::uint64_t i) { o.n_hat = static_cast<std::size_t>(i); }},
    {"d_hat", true, max_of<level_t>,
     [](const options& o) { return static_cast<std::uint64_t>(o.d_hat); }, nullptr,
     [](options& o, double, std::uint64_t i) { o.d_hat = static_cast<level_t>(i); }},
    {"payload_size", true, max_of<std::size_t>,
     [](const options& o) { return static_cast<std::uint64_t>(o.payload_size); }, nullptr,
     [](options& o, double, std::uint64_t i) { o.payload_size = static_cast<std::size_t>(i); }},
    {"message_seed", true, max_of<std::uint64_t>,
     [](const options& o) { return o.message_seed; }, nullptr,
     [](options& o, double, std::uint64_t i) { o.message_seed = i; }},
    {"decay_phase_mult", false, kMaxMultiplier, nullptr,
     [](const options& o) { return o.prm.decay_phase_mult; },
     [](options& o, double v, std::uint64_t) { o.prm.decay_phase_mult = v; }},
    {"recruit_iter_mult", false, kMaxMultiplier, nullptr,
     [](const options& o) { return o.prm.recruit_iter_mult; },
     [](options& o, double v, std::uint64_t) { o.prm.recruit_iter_mult = v; }},
    {"recruit_exp_step_mult", false, kMaxMultiplier, nullptr,
     [](const options& o) { return o.prm.recruit_exp_step_mult; },
     [](options& o, double v, std::uint64_t) { o.prm.recruit_exp_step_mult = v; }},
    {"epoch_mult", false, kMaxMultiplier, nullptr,
     [](const options& o) { return o.prm.epoch_mult; },
     [](options& o, double v, std::uint64_t) { o.prm.epoch_mult = v; }},
    {"schedule_slack", false, kMaxMultiplier, nullptr,
     [](const options& o) { return o.prm.schedule_slack; },
     [](options& o, double v, std::uint64_t) { o.prm.schedule_slack = v; }},
    {"fec_overhead", false, kMaxMultiplier, nullptr,
     [](const options& o) { return o.prm.fec_overhead; },
     [](options& o, double v, std::uint64_t) { o.prm.fec_overhead = v; }},
    {"ring_divisor", false, kMaxMultiplier, nullptr,
     [](const options& o) { return o.prm.ring_divisor; },
     [](options& o, double v, std::uint64_t) { o.prm.ring_divisor = v; }},
};

}  // namespace

std::string options::to_string() const {
  const options defaults;
  std::string out{version};
  bool first = true;
  for (const field& f : kFields) {
    const bool is_default = f.integral
                                ? f.get_int(*this) == f.get_int(defaults)
                                : f.get(*this) == f.get(defaults);
    if (is_default) continue;
    out += first ? ":" : ",";
    first = false;
    out += f.key;
    out += "=";
    out += f.integral ? std::to_string(f.get_int(*this))
                      : format_value(f.get(*this));
  }
  return out;
}

options parse_options(std::string_view text) {
  RN_CHECK_INPUT(!text.empty(), "empty options string");
  const std::size_t colon = text.find(':');
  const std::string_view tag = text.substr(0, colon);
  RN_CHECK_INPUT(tag == options::version,
                 "unknown options version '" + std::string(tag) +
                     "' (this build speaks " + std::string(options::version) +
                     ")");
  options out;
  if (colon == std::string_view::npos) return out;
  std::string_view rest = text.substr(colon + 1);
  RN_CHECK_INPUT(!rest.empty(), "options string has a ':' but no keys: " +
                                    std::string(text));
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = item.find('=');
    RN_CHECK_INPUT(eq != std::string_view::npos && eq > 0,
                   "bad option (want key=value): " + std::string(item));
    const std::string_view key = item.substr(0, eq);
    const std::string value(item.substr(eq + 1));
    const field* found = nullptr;
    for (const field& f : kFields)
      if (f.key == key) found = &f;
    RN_CHECK_INPUT(found != nullptr,
                   "unknown option key '" + std::string(key) + "'");
    if (found->integral) {
      std::uint64_t v = 0;
      RN_CHECK_INPUT(parse_u64(value, v) && v <= found->max,
                     "bad integer value for option '" + std::string(key) +
                         "': " + value);
      found->set(out, static_cast<double>(v), v);
    } else {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      // NaN fails both bounds, so an in-range value is finite.
      RN_CHECK_INPUT(end != nullptr && *end == '\0' && !value.empty() &&
                         v >= 0.0 && v <= static_cast<double>(found->max),
                     "bad numeric value for option '" + std::string(key) +
                         "': " + value);
      found->set(out, v, 0);
    }
  }
  return out;
}

}  // namespace rn::core
