#include "core/gst_broadcast.h"

#include <memory>
#include <numeric>

#include "common/check.h"
#include "common/math.h"
#include "core/runner.h"
#include "core/schedule.h"
#include "radio/network.h"

namespace rn::core {

namespace {

round_t default_budget(const gst& t, int L, double slack) {
  // O(D + log n (log n + log 1/delta)) with delta = 1/poly(n):
  // budget ~ slack * (2D + c L^2) fast/slow interleaved rounds.
  const round_t d = static_cast<round_t>(t.max_level());
  return static_cast<round_t>(slack * (6.0 * d + 48.0 * L * L + 64));
}

radio::broadcast_result finish(const radio::network& net,
                               const radio::completion_tracker& tracker) {
  radio::broadcast_result res;
  res.completed = tracker.all_done();
  res.rounds_to_complete = tracker.first_complete_round();
  res.rounds_executed = net.stats().rounds;
  res.transmissions = net.stats().transmissions;
  res.deliveries = net.stats().deliveries;
  res.collisions_observed = net.stats().collisions_observed;
  res.energy = net.energy();
  return res;
}

std::vector<node_id> all_nodes(std::size_t n) {
  std::vector<node_id> out(n);
  std::iota(out.begin(), out.end(), node_id{0});
  return out;
}

}  // namespace

radio::broadcast_result run_gst_single_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<node_id>& informed_init,
    const gst_broadcast_options& opt) {
  const std::size_t n = g.node_count();
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  gst_schedule sched(t, d, n_hat, !opt.classic_levels);
  const round_t max_rounds =
      opt.max_rounds > 0 ? opt.max_rounds
                         : default_budget(t, sched.log_n(), opt.prm.schedule_slack);

  radio::network net(g, {.collision_detection = false});
  radio::completion_tracker tracker(n);
  std::vector<char> informed(n, 0);
  for (node_id v = 0; v < n; ++v)
    if (!t.member[v]) tracker.exclude(v);
  for (node_id v : informed_init) {
    RN_REQUIRE(t.member[v], "initially informed node must be a member");
    informed[v] = 1;
    tracker.mark(v);
  }

  std::vector<rng> node_rng;
  node_rng.reserve(n);
  for (node_id v = 0; v < n; ++v)
    node_rng.push_back(rng::for_stream(opt.seed, v));

  auto body = std::make_shared<radio::packet_body>();
  body->data = {0x6d, 0x73, 0x67};
  // Flyweights: one data and one noise packet for the whole run; every
  // transmission references them (zero allocation, zero refcount churn).
  const radio::packet data_pkt = radio::packet::make_data(0, body);
  const radio::packet noise_pkt = radio::packet::make_noise();
  radio::round_buffer txs;

  // Bucketed planning: per round only the nodes whose schedule (and coin)
  // that round consults are visited — observably identical to the full scan.
  gst_schedule_index idx(sched, all_nodes(n));
  round_sink sink(net, opt.fast_forward);
  round_t r = 0;
  const auto on_rx = [&](const radio::reception& rx) {
    if (rx.what == radio::observation::message &&
        rx.pkt->kind == radio::packet_kind::data && !informed[rx.listener]) {
      informed[rx.listener] = 1;
      tracker.mark(rx.listener);
      // Lazy catch-up: discard the slow coins the full scan would have
      // drawn for this member through this round.
      if (!opt.mmv_noise)
        for (auto k = sched.slow_draws_through(rx.listener, r); k > 0; --k)
          node_rng[rx.listener]();
    }
  };

  for (; r < max_rounds; ++r) {
    // Naive stepping executes one more (possibly empty) round after the run
    // completes before noticing; force-step it so both modes agree.
    const bool completing = opt.stop_when_complete && tracker.all_done();
    txs.clear();
    if (r % 2 == 0) {
      for (node_id v : idx.fast_bucket(r)) {
        if (!informed[v] && !opt.mmv_noise) continue;
        if (sched.query(v, r, node_rng[v]) == gst_schedule::action::none)
          continue;
        if (informed[v])
          txs.add(v, data_pkt);
        else
          txs.add(v, noise_pkt);
      }
    } else {
      // Without MMV noise an uninformed member's coin cannot make it
      // transmit: its draw is skipped here and caught up in on_rx.
      idx.for_each_slow(r, [&](node_id v, int e) {
        if (!informed[v] && !opt.mmv_noise) return;
        if (node_rng[v].with_probability_pow2(e))
          txs.add(v, informed[v] ? data_pkt : noise_pkt);
      });
    }
    if (sink.commit(txs, on_rx, completing)) {
      tracker.observe_round(net.stats().rounds);
      if (opt.stop_when_complete && tracker.all_done()) break;
    }
  }
  sink.flush();
  return finish(net, tracker);
}

radio::broadcast_result run_gst_rlnc_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<std::vector<coding::message>>& source_messages,
    std::size_t k, std::size_t payload_size, const rlnc_broadcast_options& opt,
    std::vector<coding::rlnc_node>* decoders) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source_messages.size() == n, "source_messages size mismatch");
  RN_REQUIRE(k >= 1, "k must be positive");
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  gst_schedule sched(t, d, n_hat, /*slow_by_virtual_distance=*/true);
  const int L = sched.log_n();
  const round_t max_rounds =
      default_budget(t, L, opt.prm.schedule_slack) +
      static_cast<round_t>(opt.prm.schedule_slack * 8.0 *
                           static_cast<double>(k) * (L + 1));

  radio::network net(g, {.collision_detection = false});
  radio::completion_tracker tracker(n);

  std::vector<coding::rlnc_node> buf;
  buf.reserve(n);
  for (node_id v = 0; v < n; ++v) buf.emplace_back(k, payload_size);
  std::size_t source_loaded = 0;
  for (node_id v = 0; v < n; ++v) {
    if (!t.member[v]) {
      tracker.exclude(v);
      continue;
    }
    for (std::size_t i = 0; i < source_messages[v].size(); ++i) {
      RN_REQUIRE(source_messages[v][i].size() == payload_size,
                 "message payload size mismatch");
      buf[v].load_source_message(source_loaded + i, source_messages[v][i]);
    }
    if (!source_messages[v].empty()) source_loaded += source_messages[v].size();
    if (buf[v].can_decode()) tracker.mark(v);
  }
  RN_REQUIRE(source_loaded == k, "sources must jointly hold all k messages");

  std::vector<rng> node_rng;
  node_rng.reserve(n);
  for (node_id v = 0; v < n; ++v)
    node_rng.push_back(rng::for_stream(opt.seed, v));

  // Interior stretch nodes relay the most recent packet received from their
  // stretch predecessor (paper 3.3.2 case (b)).
  std::vector<std::shared_ptr<const radio::packet_body>> relay(n);

  auto fresh_packet = [&](node_id v) -> radio::packet {
    auto row = buf[v].encode(node_rng[v]);
    auto body = std::make_shared<radio::packet_body>();
    body->coeffs = std::move(row.coeffs);
    body->data = std::move(row.payload);
    return radio::packet::make_coded(0, std::move(body));
  };

  radio::round_buffer txs;
  gst_schedule_index idx(sched, all_nodes(n));
  round_sink sink(net, opt.fast_forward);
  const auto on_rx = [&](const radio::reception& rx) {
    if (rx.what != radio::observation::message ||
        rx.pkt->kind != radio::packet_kind::coded)
      return;
    const node_id v = rx.listener;
    if (!t.member[v]) return;
    buf[v].receive(rx.pkt->body->coeffs, rx.pkt->body->data);
    if (buf[v].can_decode()) tracker.mark(v);
    // Remember stretch-predecessor packets for relaying: the predecessor is
    // this node's parent when both share a rank.
    if (rx.from == t.parent[v] && !d.is_stretch_head[v])
      relay[v] = rx.pkt->body;
  };
  auto plan = [&](node_id v, gst_schedule::action a) {
    if (a == gst_schedule::action::fast && !d.is_stretch_head[v]) {
      // Relay role: forward the predecessor's packet verbatim.
      if (relay[v]) txs.add_owned(v, radio::packet::make_coded(0, relay[v]));
      return;
    }
    // Stretch heads (fast) and all slow prompts send fresh combinations.
    if (buf[v].has_anything()) txs.add_owned(v, fresh_packet(v));
  };

  for (round_t r = 0; r < max_rounds; ++r) {
    const bool completing = tracker.all_done();
    txs.clear();
    if (r % 2 == 0) {
      for (node_id v : idx.fast_bucket(r))
        if (sched.query(v, r, node_rng[v]) == gst_schedule::action::fast)
          plan(v, gst_schedule::action::fast);
    } else {
      idx.for_each_slow(r, [&](node_id v, int e) {
        if (node_rng[v].with_probability_pow2(e))
          plan(v, gst_schedule::action::slow_prompt);
      });
    }
    if (sink.commit(txs, on_rx, completing)) {
      tracker.observe_round(net.stats().rounds);
      if (tracker.all_done()) break;
    }
  }
  sink.flush();

  auto res = finish(net, tracker);
  if (decoders != nullptr) *decoders = std::move(buf);
  return res;
}

}  // namespace rn::core
