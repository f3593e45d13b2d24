#include "baseline/multi_baselines.h"

#include <memory>

#include "common/math.h"
#include "common/rng.h"
#include "core/trial_frame.h"
#include "radio/network.h"

namespace rn::baseline {

namespace {
std::shared_ptr<const radio::packet_body> make_body(std::uint32_t idx) {
  auto body = std::make_shared<radio::packet_body>();
  body->data = {static_cast<std::uint8_t>(idx), static_cast<std::uint8_t>(idx >> 8)};
  return body;
}
}  // namespace

radio::broadcast_result run_sequential_decay_multi(
    const graph::graph& g, node_id source, std::size_t k,
    const core::options& opt) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source < n, "source out of range");
  const int L = log_range(core::resolve_n_hat(opt.n_hat, n)) + 1;
  const round_t per_message_cap =
      64 * (static_cast<round_t>(n) * L + sq(L));
  const round_t max_rounds = per_message_cap * static_cast<round_t>(k);

  core::trial_frame frame(g, {.collision_detection = false}, opt.fast_forward);
  radio::completion_tracker& tracker = frame.tracker();
  // has[v] counts fully received messages; each message is broadcast in order.
  std::vector<std::size_t> has(n, 0);
  has[source] = k;
  tracker.mark(source);
  std::vector<rng> node_rng = core::node_coins(n, opt.seed);

  radio::round_buffer txs;
  std::size_t current = 0;  // message being broadcast
  std::size_t current_remaining = n - 1;
  std::vector<char> informed(n, 0);
  informed[source] = 1;
  // One flyweight packet per in-flight message; rebuilt only on msg switch.
  radio::packet pkt = radio::packet::make_data(0, make_body(0));

  const auto on_rx = [&](const radio::reception& rx) {
    if (rx.what == radio::observation::message &&
        rx.pkt->kind == radio::packet_kind::data && !informed[rx.listener]) {
      informed[rx.listener] = 1;
      --current_remaining;
      has[rx.listener] += 1;
      if (has[rx.listener] == k) tracker.mark(rx.listener);
    }
  };
  frame.run(max_rounds, txs, on_rx, [&](round_t t) {
    if (current_remaining == 0) {
      // Next message (the run is not complete, so one is left): reset the
      // informed set to {source}.
      ++current;
      informed.assign(n, 0);
      informed[source] = 1;
      current_remaining = n - 1;
      pkt = radio::packet::make_data(
          static_cast<node_id>(current),
          make_body(static_cast<std::uint32_t>(current)));
    }
    const int i = static_cast<int>(t % L) + 1;
    for (node_id v = 0; v < n; ++v) {
      if (informed[v] && node_rng[v].with_probability_pow2(i)) txs.add(v, pkt);
    }
  });
  return frame.finish();
}

radio::broadcast_result run_routing_multi(const graph::graph& g,
                                          node_id source, std::size_t k,
                                          const core::options& opt) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source < n, "source out of range");
  RN_REQUIRE(k >= 1, "need at least one message");
  const int L = log_range(core::resolve_n_hat(opt.n_hat, n)) + 1;
  const round_t max_rounds = 64 * static_cast<round_t>(k + n) * L * L;

  core::trial_frame frame(g, {.collision_detection = false}, opt.fast_forward);
  radio::completion_tracker& tracker = frame.tracker();
  // holds[v] = bitmap of received messages (k is small in benches).
  std::vector<std::vector<char>> holds(n, std::vector<char>(k, 0));
  std::vector<std::vector<node_id>> have_list(n);
  for (std::size_t m = 0; m < k; ++m) {
    holds[source][m] = 1;
    have_list[source].push_back(static_cast<node_id>(m));
  }
  tracker.mark(source);
  std::vector<rng> node_rng = core::node_coins(n, opt.seed);

  // One flyweight packet per message, referenced by every forwarder.
  std::vector<radio::packet> pkts;
  pkts.reserve(k);
  for (std::size_t m = 0; m < k; ++m)
    pkts.push_back(radio::packet::make_data(
        static_cast<node_id>(m), make_body(static_cast<std::uint32_t>(m))));

  radio::round_buffer txs;
  const auto on_rx = [&](const radio::reception& rx) {
    if (rx.what != radio::observation::message ||
        rx.pkt->kind != radio::packet_kind::data)
      return;
    const std::size_t m = rx.pkt->a;
    auto& hv = holds[rx.listener];
    if (!hv[m]) {
      hv[m] = 1;
      have_list[rx.listener].push_back(static_cast<node_id>(m));
      if (have_list[rx.listener].size() == k) tracker.mark(rx.listener);
    }
  };
  frame.run(max_rounds, txs, on_rx, [&](round_t t) {
    const int i = static_cast<int>(t % L) + 1;
    for (node_id v = 0; v < n; ++v) {
      if (have_list[v].empty()) continue;
      if (!node_rng[v].with_probability_pow2(i)) continue;
      // Forward a uniformly random held message (routing, no coding).
      const node_id m =
          have_list[v][node_rng[v].uniform(have_list[v].size())];
      txs.add(v, pkts[m]);
    }
  });
  return frame.finish();
}

}  // namespace rn::baseline
