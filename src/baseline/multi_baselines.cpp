#include "baseline/multi_baselines.h"

#include <memory>

#include "common/math.h"
#include "common/rng.h"
#include "radio/network.h"

namespace rn::baseline {

namespace {
std::shared_ptr<const radio::packet_body> make_body(std::uint32_t idx) {
  auto body = std::make_shared<radio::packet_body>();
  body->data = {static_cast<std::uint8_t>(idx), static_cast<std::uint8_t>(idx >> 8)};
  return body;
}
}  // namespace

radio::broadcast_result run_sequential_decay_multi(const graph::graph& g,
                                                   node_id source,
                                                   const multi_options& opt) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source < n, "source out of range");
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  const int L = log_range(n_hat) + 1;
  const round_t per_message_cap =
      64 * (static_cast<round_t>(n) * L + sq(L));
  const round_t max_rounds = per_message_cap * static_cast<round_t>(opt.k);

  radio::network net(g, {.collision_detection = false});
  radio::completion_tracker tracker(n);
  // has[v] counts fully received messages; each message is broadcast in order.
  std::vector<std::size_t> has(n, 0);
  has[source] = opt.k;
  tracker.mark(source);

  std::vector<rng> node_rng;
  node_rng.reserve(n);
  for (node_id v = 0; v < n; ++v)
    node_rng.push_back(rng::for_stream(opt.seed, v));

  radio::round_buffer txs;
  std::size_t current = 0;  // message being broadcast
  std::size_t current_remaining = n - 1;
  std::vector<char> informed(n, 0);
  informed[source] = 1;
  // One flyweight packet per in-flight message; rebuilt only on msg switch.
  radio::packet pkt = radio::packet::make_data(0, make_body(0));

  for (round_t t = 0; t < max_rounds && current < opt.k; ++t) {
    const int i = static_cast<int>(t % L) + 1;
    txs.clear();
    for (node_id v = 0; v < n; ++v) {
      if (informed[v] && node_rng[v].with_probability_pow2(i)) txs.add(v, pkt);
    }
    net.step(txs, [&](const radio::reception& rx) {
      if (rx.what == radio::observation::message &&
          rx.pkt->kind == radio::packet_kind::data && !informed[rx.listener]) {
        informed[rx.listener] = 1;
        --current_remaining;
        has[rx.listener] += 1;
        if (has[rx.listener] == opt.k) tracker.mark(rx.listener);
      }
    });
    if (current_remaining == 0) {
      // Next message: reset the informed set to {source}.
      ++current;
      if (current < opt.k) {
        informed.assign(n, 0);
        informed[source] = 1;
        current_remaining = n - 1;
        pkt = radio::packet::make_data(
            static_cast<node_id>(current),
            make_body(static_cast<std::uint32_t>(current)));
      }
    }
    tracker.observe_round(net.stats().rounds);
    if (tracker.all_done()) break;
  }

  radio::broadcast_result res;
  res.completed = tracker.all_done();
  res.rounds_to_complete = tracker.first_complete_round();
  res.rounds_executed = net.stats().rounds;
  res.transmissions = net.stats().transmissions;
  res.deliveries = net.stats().deliveries;
  res.collisions_observed = net.stats().collisions_observed;
  return res;
}

radio::broadcast_result run_routing_multi(const graph::graph& g,
                                          node_id source,
                                          const multi_options& opt) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source < n, "source out of range");
  RN_REQUIRE(opt.k >= 1, "need at least one message");
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  const int L = log_range(n_hat) + 1;
  const round_t max_rounds = 64 * static_cast<round_t>(opt.k + n) * L * L;

  radio::network net(g, {.collision_detection = false});
  radio::completion_tracker tracker(n);
  // holds[v] = bitmap of received messages (k is small in benches).
  std::vector<std::vector<char>> holds(n, std::vector<char>(opt.k, 0));
  std::vector<std::vector<node_id>> have_list(n);
  for (std::size_t m = 0; m < opt.k; ++m) {
    holds[source][m] = 1;
    have_list[source].push_back(static_cast<node_id>(m));
  }
  tracker.mark(source);

  std::vector<rng> node_rng;
  node_rng.reserve(n);
  for (node_id v = 0; v < n; ++v)
    node_rng.push_back(rng::for_stream(opt.seed, v));

  // One flyweight packet per message, referenced by every forwarder.
  std::vector<radio::packet> pkts;
  pkts.reserve(opt.k);
  for (std::size_t m = 0; m < opt.k; ++m)
    pkts.push_back(radio::packet::make_data(
        static_cast<node_id>(m), make_body(static_cast<std::uint32_t>(m))));

  radio::round_buffer txs;
  for (round_t t = 0; t < max_rounds; ++t) {
    const int i = static_cast<int>(t % L) + 1;
    txs.clear();
    for (node_id v = 0; v < n; ++v) {
      if (have_list[v].empty()) continue;
      if (!node_rng[v].with_probability_pow2(i)) continue;
      // Forward a uniformly random held message (routing, no coding).
      const node_id m =
          have_list[v][node_rng[v].uniform(have_list[v].size())];
      txs.add(v, pkts[m]);
    }
    net.step(txs, [&](const radio::reception& rx) {
      if (rx.what != radio::observation::message ||
          rx.pkt->kind != radio::packet_kind::data)
        return;
      const std::size_t m = rx.pkt->a;
      auto& hv = holds[rx.listener];
      if (!hv[m]) {
        hv[m] = 1;
        have_list[rx.listener].push_back(static_cast<node_id>(m));
        if (have_list[rx.listener].size() == opt.k) tracker.mark(rx.listener);
      }
    });
    tracker.observe_round(net.stats().rounds);
    if (tracker.all_done()) break;
  }

  radio::broadcast_result res;
  res.completed = tracker.all_done();
  res.rounds_to_complete = tracker.first_complete_round();
  res.rounds_executed = net.stats().rounds;
  res.transmissions = net.stats().transmissions;
  res.deliveries = net.stats().deliveries;
  res.collisions_observed = net.stats().collisions_observed;
  return res;
}

}  // namespace rn::baseline
