// Checked preconditions/invariants (I.5/I.7 style Expects/Ensures).
//
// RN_REQUIRE is always on: it guards public API contracts and protocol
// invariants whose violation indicates a bug, and throws rn::contract_error so
// tests can assert on misuse. RN_CHECK_INPUT rejects input from outside the
// program (a topology spec, an options string, a fault plan) with an
// rn::input_error whose text is the message alone, since it is shown to the
// user who wrote the input. RN_ASSERT compiles out in NDEBUG builds and is
// used on hot paths.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace rn {

/// Thrown when a checked contract (RN_REQUIRE) is violated.
class contract_error : public std::logic_error {
 public:
  explicit contract_error(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when input from outside the program is rejected (RN_CHECK_INPUT).
/// Its text names the input and is free of source locations.
class input_error : public contract_error {
 public:
  explicit input_error(const std::string& what) : contract_error(what) {}
};

namespace detail {
[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line,
                                          const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw contract_error(os.str());
}
}  // namespace detail

}  // namespace rn

#define RN_REQUIRE(expr, msg)                                              \
  do {                                                                     \
    if (!(expr))                                                           \
      ::rn::detail::contract_failure("RN_REQUIRE", #expr, __FILE__,        \
                                     __LINE__, (msg));                     \
  } while (0)

#define RN_CHECK_INPUT(expr, msg)                                          \
  do {                                                                     \
    if (!(expr)) throw ::rn::input_error(msg);                             \
  } while (0)

#ifdef NDEBUG
#define RN_ASSERT(expr) ((void)0)
#else
#define RN_ASSERT(expr)                                                    \
  do {                                                                     \
    if (!(expr))                                                           \
      ::rn::detail::contract_failure("RN_ASSERT", #expr, __FILE__,         \
                                     __LINE__, std::string{});             \
  } while (0)
#endif
