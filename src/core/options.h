// Versioned run options with a canonical text form.
//
// `core::options` consolidates every knob reachable from
// `core::run_broadcast` into one struct that prints to (and parses from) a
// canonical "opt-v1:key=value,..." string, mirroring graph::topology_spec —
// so a service request string captures *every* determinism-relevant input of
// a run. Omitted keys mean "the default"; printing skips default-valued
// fields, which makes the text form stable across a parse round-trip
// (parse_options(o.to_string()) == o).
//
// Two fields deliberately ride outside the string:
//   - `seed` is a per-request execution input, carried as its own component
//     of a request (and of the service cache key) — exactly like
//     topology_spec::seed, which its to_string() also excludes;
//   - `fast_forward` is an execution mode under a byte-identity contract
//     (results never depend on it, see README "Fast-forward execution"), so
//     it cannot be determinism-relevant by construction.
// Any future field must either appear in the canonical string or carry the
// same result-invariance argument; fields representable in neither form are
// deprecated by policy.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/params.h"

namespace rn::core {

struct options {
  /// Canonical text-form version tag. Bump when a key is added, removed, or
  /// changes meaning — option strings are cache-key components, so two
  /// versions must never canonicalize to the same bytes with different
  /// semantics.
  static constexpr std::string_view version = "opt-v1";

  std::size_t n_hat = 0;
  level_t d_hat = 0;
  std::uint64_t seed = 1;
  params prm = params::paper();
  std::size_t payload_size = 32;
  /// Seed for the generated test payloads of the RLNC protocols
  /// (0 = derive from `seed`, the historical behavior).
  std::uint64_t message_seed = 0;
  /// Fast-forward transmitter-free rounds (bit-identical results). The
  /// GST-based algorithms skip proven-idle schedule rounds; the Decay
  /// baselines compute next-transmit rounds from their batched coin streams
  /// and skip the calendar gaps (see baseline/decay.h).
  bool fast_forward = false;

  /// Canonical "opt-v1:key=value,..." form: fixed key order, default-valued
  /// fields omitted (default options print as just "opt-v1"). Excludes
  /// `seed` and `fast_forward` — see the header comment.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const options&, const options&) = default;
};

/// Parses the canonical text form ("opt-v1" or "opt-v1:key=value,...");
/// omitted keys keep their defaults. Throws input_error on an unknown
/// version tag, unknown key, or malformed value, and on a value outside its
/// key's range (a multiplier must be finite and in [0, 2^16]). Round-trip
/// contract: parse_options(o.to_string()) == o up to the excluded execution
/// fields.
[[nodiscard]] options parse_options(std::string_view text);

}  // namespace rn::core
