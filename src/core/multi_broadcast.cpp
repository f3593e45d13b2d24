#include "core/multi_broadcast.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/gst_centralized.h"
#include "core/schedule.h"
#include "core/trial_frame.h"
#include "radio/network.h"

namespace rn::core {

namespace {

/// True iff `node` decodes, to messages[first, first + its k).
bool decodes_to(const coding::rlnc_node& node,
                const std::vector<coding::message>& messages,
                std::size_t first) {
  if (!node.can_decode()) return false;
  const auto got = node.decode_all();
  return std::equal(got.begin(), got.end(),
                    messages.begin() + static_cast<std::ptrdiff_t>(first));
}

}  // namespace

multi_broadcast_result run_known_multi_broadcast(
    const graph::graph& g, node_id source,
    const std::vector<coding::message>& messages, const options& opt) {
  const std::size_t n = g.node_count();
  const std::size_t k = messages.size();
  RN_REQUIRE(k >= 1, "need at least one message");
  const auto t = build_gst_centralized(g, source);
  const auto d = derive(g, t);
  gst_schedule sched(t, d, resolve_n_hat(opt.n_hat, n),
                     /*slow_by_virtual_distance=*/true);
  const int L = sched.log_n();
  const round_t max_rounds =
      relay_budget(t.max_level(), L, opt.prm.schedule_slack) +
      static_cast<round_t>(opt.prm.schedule_slack * 8.0 *
                           static_cast<double>(k) * (L + 1));

  trial_frame frame(g, {.collision_detection = false}, opt.fast_forward);
  radio::completion_tracker& tracker = frame.tracker();

  std::vector<coding::rlnc_node> buf;
  buf.reserve(n);
  for (node_id v = 0; v < n; ++v) buf.emplace_back(k, opt.payload_size);
  for (std::size_t i = 0; i < k; ++i) {
    RN_REQUIRE(messages[i].size() == opt.payload_size,
               "message payload size mismatch");
    buf[source].load_source_message(i, messages[i]);
  }
  for (node_id v = 0; v < n; ++v) {
    if (!t.member[v])
      tracker.exclude(v);
    else if (buf[v].can_decode())
      tracker.mark(v);
  }

  std::vector<rng> node_rng = node_coins(n, opt.seed);

  // Interior stretch nodes relay the most recent packet received from their
  // stretch predecessor (paper 3.3.2 case (b)).
  std::vector<std::shared_ptr<const radio::packet_body>> relay(n);
  coded_packets coded;

  radio::round_buffer txs;
  gst_schedule_index idx(sched);
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
  const auto emit = [&](node_id v, gst_schedule::action a) {
    if (a == gst_schedule::action::fast && !d.is_stretch_head[v]) {
      // Relay role: forward the predecessor's packet verbatim.
      if (relay[v]) txs.add_owned(v, radio::packet::make_coded(0, relay[v]));
      return;
    }
    // Stretch heads (fast) and all slow prompts send fresh combinations.
    if (buf[v].has_anything())
      txs.add_owned(v, coded.fresh(0, buf[v], node_rng[v]));
  };

  frame.run(max_rounds, txs, on_rx,
            [&](round_t r) { idx.plan(r, node_rng, emit); });

  multi_broadcast_result out;
  out.base = frame.finish();
  out.payloads_verified = out.base.completed;
  for (node_id v = 0; v < n && out.payloads_verified; ++v)
    if (t.member[v] && !decodes_to(buf[v], messages, 0))
      out.payloads_verified = false;
  return out;
}

multi_broadcast_result run_unknown_cd_multi_broadcast(
    const graph::graph& g, node_id source,
    const std::vector<coding::message>& messages, const options& opt) {
  const std::size_t n = g.node_count();
  const std::size_t k = messages.size();
  RN_REQUIRE(k >= 1, "need at least one message");
  const std::size_t n_hat = resolve_n_hat(opt.n_hat, n);
  const int L = log_range(n_hat);
  const int dp = opt.prm.decay_phases(n_hat);

  auto setup = prepare_unknown_topology(g, source, opt);
  const std::size_t ring_count = setup.rings.rings.size();

  // Batches of Theta(log n) messages [DEV-7].
  coding::batch_layout batches{k, std::max<std::size_t>(1, static_cast<std::size_t>(L))};
  const std::size_t B = batches.batch_count();

  // Per-node per-batch RLNC buffers.
  std::vector<std::vector<coding::rlnc_node>> buf(n);
  for (node_id v = 0; v < n; ++v) {
    if (setup.rings.ring_of[v] < 0 && v != source) continue;
    buf[v].reserve(B);
    for (std::size_t b = 0; b < B; ++b)
      buf[v].emplace_back(batches.size_of(b), opt.payload_size);
  }
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t i = batches.batch_begin(b); i < batches.batch_end(b); ++i) {
      RN_REQUIRE(messages[i].size() == opt.payload_size,
                 "message payload size mismatch");
      buf[source][b].load_source_message(i - batches.batch_begin(b),
                                         messages[i]);
    }

  trial_frame frame(g, {.collision_detection = true}, opt.fast_forward);
  radio::completion_tracker& tracker = frame.tracker();
  auto node_done = [&](node_id v) {
    for (std::size_t b = 0; b < B; ++b)
      if (!buf[v][b].can_decode()) return false;
    return true;
  };
  for (node_id v = 0; v < n; ++v) {
    if (setup.rings.ring_of[v] < 0)
      tracker.exclude(v);
    else if (node_done(v))
      tracker.mark(v);
  }

  std::vector<rng> node_rng = node_coins(n, opt.seed ^ 0x3517ULL);

  // Schedules (and per-round candidate buckets) per ring.
  std::vector<gst_schedule> scheds;
  scheds.reserve(ring_count);
  level_t w_max = 0;
  for (std::size_t j = 0; j < ring_count; ++j) {
    scheds.emplace_back(setup.forests[j], setup.derived[j], n_hat, true);
    w_max = std::max(w_max, setup.rings.rings[j].depth);
  }
  std::vector<gst_schedule_index> sched_idx;
  sched_idx.reserve(ring_count);
  for (std::size_t j = 0; j < ring_count; ++j)
    sched_idx.emplace_back(scheds[j], setup.rings.rings[j].members);
  const round_t intra_budget = relay_budget(
      w_max, L, opt.prm.schedule_slack,
      8.0 * static_cast<double>(batches.batch_size) * (L + 1));
  const int handoff_phases =
      dp + static_cast<int>(opt.prm.fec_overhead *
                            static_cast<double>(batches.batch_size));

  coded_packets coded;
  auto fresh_packet = [&](node_id v, std::size_t b) {
    return coded.fresh(static_cast<std::uint32_t>(b), buf[v][b], node_rng[v]);
  };

  // Relay buffers for interior stretch nodes (reset per super-epoch).
  std::vector<std::shared_ptr<const radio::packet_body>> relay(n);
  std::vector<std::uint32_t> relay_batch(n, 0);

  auto on_rx = [&](const radio::reception& rx) {
    if (rx.what != radio::observation::message ||
        rx.pkt->kind != radio::packet_kind::coded)
      return;
    const node_id v = rx.listener;
    const auto ring = setup.rings.ring_of[v];
    if (ring < 0) return;
    const std::size_t b = rx.pkt->x;
    if (b >= B || buf[v].empty()) return;
    const bool was_done = buf[v][b].can_decode();
    buf[v][b].receive(rx.pkt->body->coeffs, rx.pkt->body->data);
    if (!was_done && node_done(v)) tracker.mark(v);
    if (rx.from == setup.forests[static_cast<std::size_t>(ring)].parent[v] &&
        !setup.derived[static_cast<std::size_t>(ring)].is_stretch_head[v]) {
      relay[v] = rx.pkt->body;
      relay_batch[v] = rx.pkt->x;
    }
  };

  radio::round_buffer txs;
  const std::size_t super_epochs = ring_count + B;  // one slack epoch
  const round_t handoff_rounds = static_cast<round_t>(handoff_phases) * (L + 1);
  round_t pipeline_rounds = 0;
  for (std::size_t e = 0; e < super_epochs; ++e) {
    // Intra-ring RLNC phase: ring j works on batch e - j.
    std::fill(relay.begin(), relay.end(), nullptr);
    frame.run(intra_budget, txs, on_rx, [&](round_t r) {
      for (std::size_t j = 0; j < ring_count; ++j) {
        if (e < j || e - j >= B) continue;
        const std::size_t b = e - j;
        const auto& der = setup.derived[j];
        // Slow prompts and stretch heads send fresh combinations; interior
        // stretch nodes relay their predecessor's packet.
        sched_idx[j].plan(r, node_rng, [&](node_id v, gst_schedule::action a) {
          if (a == gst_schedule::action::fast && !der.is_stretch_head[v]) {
            if (relay[v] && relay_batch[v] == b)
              txs.add_owned(v, radio::packet::make_coded(
                                   static_cast<std::uint32_t>(b), relay[v]));
          } else if (buf[v][b].has_anything()) {
            txs.add_owned(v, fresh_packet(v, b));
          }
        });
      }
    });
    pipeline_rounds += intra_budget;

    // FEC handoff phase: ring j's outer boundary pushes batch e - j to ring
    // j+1's roots with fountain packets over Decay.
    frame.run(handoff_rounds, txs, on_rx, [&](round_t r) {
      const int ex = static_cast<int>(r % (L + 1));
      for (std::size_t j = 0; j + 1 < ring_count; ++j) {
        if (e < j || e - j >= B) continue;
        const std::size_t b = e - j;
        const level_t outer = setup.rings.rings[j].depth;
        for (node_id v : setup.rings.rings[j].members) {
          if (setup.rings.rel_level[v] != outer) continue;
          if (!buf[v][b].can_decode()) continue;
          if (node_rng[v].with_probability_pow2(ex))
            txs.add_owned(v, fresh_packet(v, b));
        }
      }
    });
    pipeline_rounds += handoff_rounds;
  }
  // The rest of the prescribed pipeline runs idle once every node decodes.
  frame.advance(pipeline_rounds - frame.stats().rounds);

  multi_broadcast_result out;
  out.base = frame.finish(setup.total_rounds());
  out.base.phase_rounds = setup.phase_rounds();
  out.base.phase_rounds.emplace_back("batch_pipeline", pipeline_rounds);
  out.payloads_verified = out.base.completed;
  for (node_id v = 0; v < n && out.payloads_verified; ++v) {
    if (setup.rings.ring_of[v] < 0) continue;
    for (std::size_t b = 0; b < B && out.payloads_verified; ++b)
      if (!decodes_to(buf[v][b], messages, batches.batch_begin(b)))
        out.payloads_verified = false;
  }
  return out;
}

}  // namespace rn::core
