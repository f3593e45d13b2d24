// The one strict decimal parser and the one number printer of the text
// forms the programs read and write: option strings, topology specs,
// numeric flags and fault plans.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rn {

/// Strict decimal parse of a whole string: digits only (no sign, blank or
/// suffix) and at most 2^64 - 1. Leaves `out` unchanged on failure.
[[nodiscard]] bool parse_u64(std::string_view s, std::uint64_t& out);

/// Canonical print of a spec or option value: a whole number below 9e15 as
/// its digits, anything else as the shortest decimal that parses back to it.
[[nodiscard]] std::string format_value(double v);

}  // namespace rn
