#include "common/text.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace rn {

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

std::string format_value(double v) {
  if (v == std::floor(v) && std::fabs(v) < 9e15)
    return std::to_string(static_cast<long long>(v));
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  RN_REQUIRE(ec == std::errc(), "unformattable value");
  return std::string(buf, ptr);
}

}  // namespace rn
