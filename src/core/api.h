// Public facade: a string-keyed protocol registry and one entry point,
// `run_broadcast(graph, protocol_id, workload, options)`, for examples,
// declarative scenarios, and the benchmark harnesses.
//
// Protocols are data: every algorithm family member (baselines and the
// paper's Theorem 1.1/1.2/1.3 pipelines) registers under a stable id, so
// workloads can name algorithms in JSON/CLI instead of compiling against an
// enum. (The pre-registry enum API was deleted after its one-PR deprecation
// window.)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/registry.h"
#include "core/options.h"
#include "core/params.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::core {

/// What to broadcast: the source node and how many messages start there.
struct broadcast_workload {
  node_id source = 0;
  std::size_t messages = 1;
};

/// Result of `run_broadcast`: the usual round/traffic counters plus the
/// payload check of the coding protocols (always true for uncoded ones).
struct broadcast_outcome {
  radio::broadcast_result base;
  bool payloads_verified = true;
};

/// One registered broadcast protocol.
struct protocol_entry {
  std::string id;       ///< stable key, e.g. "decay", "rlnc-unknown-cd"
  std::string summary;  ///< one-line description for --list output
  bool multi_message = false;  ///< accepts workloads with messages > 1
  std::function<broadcast_outcome(const graph::graph&,
                                  const broadcast_workload&,
                                  const options&)>
      run;
};

/// Process-wide protocol id -> entry table; builtins register on first use.
class protocol_registry {
 public:
  static protocol_registry& instance();

  void add(protocol_entry e) {
    RN_REQUIRE(static_cast<bool>(e.run), "protocol has no runner: " + e.id);
    table_.add(std::move(e));
  }
  [[nodiscard]] const protocol_entry* find(std::string_view id) const {
    return table_.find(id);
  }
  /// Registration order.
  [[nodiscard]] std::vector<std::string> ids() const { return table_.keys(); }
  [[nodiscard]] std::string ids_joined() const { return table_.keys_joined(); }

 private:
  protocol_registry();
  keyed_registry<protocol_entry, &protocol_entry::id> table_{"protocol id"};
};

/// Runs `protocol` on `g` with the given workload. Throws contract_error for
/// an unknown protocol id, and when a single-message protocol receives a
/// workload with messages != 1.
[[nodiscard]] broadcast_outcome run_broadcast(const graph::graph& g,
                                              std::string_view protocol,
                                              const broadcast_workload& w,
                                              const options& opt);

}  // namespace rn::core
