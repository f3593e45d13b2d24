#include "core/api.h"

#include "baseline/decay.h"
#include "baseline/multi_baselines.h"
#include "common/check.h"
#include "core/multi_broadcast.h"
#include "core/single_broadcast.h"

namespace rn::core {

namespace {

std::vector<coding::message> test_messages(const broadcast_workload& w,
                                           const options& opt) {
  const std::uint64_t seed =
      opt.message_seed != 0 ? opt.message_seed : opt.seed ^ 0x5eedULL;
  return coding::make_test_messages(w.messages, opt.payload_size, seed);
}

broadcast_outcome of_single(radio::broadcast_result res) {
  return {std::move(res), true};
}

broadcast_outcome of_multi(multi_broadcast_result res) {
  return {std::move(res.base), res.payloads_verified};
}

}  // namespace

protocol_registry& protocol_registry::instance() {
  static protocol_registry reg;
  return reg;
}

protocol_registry::protocol_registry() {
  using g_t = const graph::graph&;
  using w_t = const broadcast_workload&;
  using o_t = const options&;
  add({"decay", "BGI Decay baseline (single message)", false,
       [](g_t g, w_t w, o_t opt) {
         return of_single(baseline::run_decay_broadcast(g, w.source, opt));
       }});
  add({"tuned-decay", "Czumaj-Rytter-style tuned Decay baseline", false,
       [](g_t g, w_t w, o_t opt) {
         return of_single(
             baseline::run_tuned_decay_broadcast(g, w.source, opt));
       }});
  add({"gst-known", "known topology, GST schedule (O(D + log^2 n))", false,
       [](g_t g, w_t w, o_t opt) {
         return of_single(run_known_single_broadcast(g, w.source, opt));
       }});
  add({"gst-unknown-cd", "Theorem 1.1 pipeline (O(D + log^6 n))", false,
       [](g_t g, w_t w, o_t opt) {
         return of_single(run_unknown_cd_single_broadcast(g, w.source, opt));
       }});
  add({"seq-decay", "one Decay broadcast per message (baseline)", true,
       [](g_t g, w_t w, o_t opt) {
         return of_single(baseline::run_sequential_decay_multi(
             g, w.source, w.messages, opt));
       }});
  add({"routing", "store-and-forward random forwarding (baseline)", true,
       [](g_t g, w_t w, o_t opt) {
         return of_single(
             baseline::run_routing_multi(g, w.source, w.messages, opt));
       }});
  add({"rlnc-known", "Theorem 1.2: RLNC over a central MMV-GST schedule", true,
       [](g_t g, w_t w, o_t opt) {
         return of_multi(run_known_multi_broadcast(g, w.source,
                                                   test_messages(w, opt), opt));
       }});
  add({"rlnc-unknown-cd", "Theorem 1.3: Thm 1.1 setup + batched RLNC relay",
       true, [](g_t g, w_t w, o_t opt) {
         return of_multi(run_unknown_cd_multi_broadcast(
             g, w.source, test_messages(w, opt), opt));
       }});
}

broadcast_outcome run_broadcast(const graph::graph& g,
                                std::string_view protocol,
                                const broadcast_workload& w,
                                const options& opt) {
  const auto* e = protocol_registry::instance().find(protocol);
  RN_REQUIRE(e != nullptr,
             "unknown protocol '" + std::string(protocol) + "' (known: " +
                 protocol_registry::instance().ids_joined() + ")");
  RN_REQUIRE(w.messages >= 1, "workload needs at least one message");
  RN_REQUIRE(e->multi_message || w.messages == 1,
             "protocol '" + e->id + "' is single-message (got messages = " +
                 std::to_string(w.messages) + ")");
  return e->run(g, w, opt);
}

}  // namespace rn::core
