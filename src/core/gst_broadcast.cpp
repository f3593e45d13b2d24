#include "core/gst_broadcast.h"

#include <memory>
#include <numeric>

#include "common/check.h"
#include "common/math.h"
#include "core/schedule.h"
#include "core/trial_frame.h"
#include "radio/network.h"

namespace rn::core {

namespace {

round_t default_budget(const gst& t, int L, double slack) {
  // O(D + log n (log n + log 1/delta)) with delta = 1/poly(n):
  // budget ~ slack * (2D + c L^2) fast/slow interleaved rounds.
  const round_t d = static_cast<round_t>(t.max_level());
  return static_cast<round_t>(slack * (6.0 * d + 48.0 * L * L + 64));
}

std::vector<node_id> all_nodes(std::size_t n) {
  std::vector<node_id> out(n);
  std::iota(out.begin(), out.end(), node_id{0});
  return out;
}

}  // namespace

radio::broadcast_result run_gst_single_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<node_id>& informed_init, const options& opt,
    bool mmv_noise, bool classic_levels, round_t exact_rounds) {
  const std::size_t n = g.node_count();
  gst_schedule sched(t, d, resolve_n_hat(opt.n_hat, n), !classic_levels);
  const bool stop_when_complete = exact_rounds == 0;
  const round_t max_rounds =
      stop_when_complete
          ? default_budget(t, sched.log_n(), opt.prm.schedule_slack)
          : exact_rounds;

  trial_frame frame(g, {.collision_detection = false}, opt.fast_forward);
  informed_set informed(frame);
  for (node_id v = 0; v < n; ++v)
    if (!t.member[v]) frame.tracker().exclude(v);
  for (node_id v : informed_init) {
    RN_REQUIRE(t.member[v], "initially informed node must be a member");
    informed.inform(v);
  }
  std::vector<rng> node_rng = node_coins(n, opt.seed);

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
  round_t r = 0;
  const auto on_rx = [&](const radio::reception& rx) {
    // Lazy catch-up: discard the slow coins the full scan would have drawn
    // for a newly informed member through this round.
    if (informed.receive(rx) && !mmv_noise)
      for (auto k = sched.slow_draws_through(rx.listener, r); k > 0; --k)
        node_rng[rx.listener]();
  };

  for (; r < max_rounds; ++r) {
    // Naive stepping executes one more (possibly empty) round after the run
    // completes before noticing; force-step it so both modes agree.
    const bool completing = stop_when_complete && frame.tracker().all_done();
    txs.clear();
    if (r % 2 == 0) {
      for (node_id v : idx.fast_bucket(r)) {
        if (informed[v])
          txs.add(v, data_pkt);
        else if (mmv_noise)
          txs.add(v, noise_pkt);
      }
    } else {
      // Without MMV noise an uninformed member's coin cannot make it
      // transmit: its draw is skipped here and caught up in on_rx.
      idx.for_each_slow(r, [&](node_id v, int e) {
        if (!informed[v] && !mmv_noise) return;
        if (node_rng[v].with_probability_pow2(e))
          txs.add(v, informed[v] ? data_pkt : noise_pkt);
      });
    }
    if (frame.commit(txs, on_rx, completing) && stop_when_complete &&
        frame.tracker().all_done())
      break;
  }
  return frame.finish();
}

radio::broadcast_result run_gst_rlnc_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<std::vector<coding::message>>& source_messages,
    std::size_t k, const options& opt,
    std::vector<coding::rlnc_node>* decoders) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source_messages.size() == n, "source_messages size mismatch");
  RN_REQUIRE(k >= 1, "k must be positive");
  gst_schedule sched(t, d, resolve_n_hat(opt.n_hat, n),
                     /*slow_by_virtual_distance=*/true);
  const int L = sched.log_n();
  const round_t max_rounds =
      default_budget(t, L, opt.prm.schedule_slack) +
      static_cast<round_t>(opt.prm.schedule_slack * 8.0 *
                           static_cast<double>(k) * (L + 1));

  trial_frame frame(g, {.collision_detection = false}, opt.fast_forward);
  radio::completion_tracker& tracker = frame.tracker();

  std::vector<coding::rlnc_node> buf;
  buf.reserve(n);
  for (node_id v = 0; v < n; ++v) buf.emplace_back(k, opt.payload_size);
  std::size_t source_loaded = 0;
  for (node_id v = 0; v < n; ++v) {
    if (!t.member[v]) {
      tracker.exclude(v);
      continue;
    }
    for (std::size_t i = 0; i < source_messages[v].size(); ++i) {
      RN_REQUIRE(source_messages[v][i].size() == opt.payload_size,
                 "message payload size mismatch");
      buf[v].load_source_message(source_loaded + i, source_messages[v][i]);
    }
    if (!source_messages[v].empty()) source_loaded += source_messages[v].size();
    if (buf[v].can_decode()) tracker.mark(v);
  }
  RN_REQUIRE(source_loaded == k, "sources must jointly hold all k messages");

  std::vector<rng> node_rng = node_coins(n, opt.seed);

  // Interior stretch nodes relay the most recent packet received from their
  // stretch predecessor (paper 3.3.2 case (b)).
  std::vector<std::shared_ptr<const radio::packet_body>> relay(n);
  coded_packets coded;

  radio::round_buffer txs;
  gst_schedule_index idx(sched, all_nodes(n));
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
    if (buf[v].has_anything())
      txs.add_owned(v, coded.fresh(0, buf[v], node_rng[v]));
  };

  for (round_t r = 0; r < max_rounds; ++r) {
    const bool completing = tracker.all_done();
    txs.clear();
    if (r % 2 == 0) {
      for (node_id v : idx.fast_bucket(r)) plan(v, gst_schedule::action::fast);
    } else {
      idx.for_each_slow(r, [&](node_id v, int e) {
        if (node_rng[v].with_probability_pow2(e))
          plan(v, gst_schedule::action::slow_prompt);
      });
    }
    if (frame.commit(txs, on_rx, completing) && tracker.all_done()) break;
  }
  if (decoders != nullptr) *decoders = std::move(buf);
  return frame.finish();
}

}  // namespace rn::core
