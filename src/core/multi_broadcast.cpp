#include "core/multi_broadcast.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/gst_broadcast.h"
#include "core/gst_centralized.h"
#include "core/runner.h"
#include "core/schedule.h"
#include "radio/network.h"

namespace rn::core {

multi_broadcast_result run_known_multi_broadcast(
    const graph::graph& g, node_id source,
    const std::vector<coding::message>& messages,
    const multi_broadcast_options& opt) {
  const std::size_t n = g.node_count();
  const std::size_t k = messages.size();
  RN_REQUIRE(k >= 1, "need at least one message");
  const auto t = build_gst_centralized(g, source);
  const auto d = derive(g, t);

  std::vector<std::vector<coding::message>> source_messages(n);
  source_messages[source] = messages;

  rlnc_broadcast_options bo;
  bo.n_hat = opt.n_hat;
  bo.seed = opt.seed;
  bo.prm = opt.prm;
  bo.fast_forward = opt.fast_forward;

  std::vector<coding::rlnc_node> decoders;
  multi_broadcast_result out;
  out.base = run_gst_rlnc_broadcast(g, t, d, source_messages, k,
                                    opt.payload_size, bo, &decoders);
  out.payloads_verified = out.base.completed;
  for (node_id v = 0; v < n && out.payloads_verified; ++v) {
    if (!t.member[v]) continue;
    if (!decoders[v].can_decode()) {
      out.payloads_verified = false;
      break;
    }
    const auto got = decoders[v].decode_all();
    for (std::size_t i = 0; i < k; ++i)
      if (got[i] != messages[i]) out.payloads_verified = false;
  }
  return out;
}

multi_broadcast_result run_unknown_cd_multi_broadcast(
    const graph::graph& g, node_id source,
    const std::vector<coding::message>& messages,
    const multi_broadcast_options& opt) {
  const std::size_t n = g.node_count();
  const std::size_t k = messages.size();
  RN_REQUIRE(k >= 1, "need at least one message");
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  const int L = log_range(n_hat);
  const int dp = opt.prm.decay_phases(n_hat);

  single_broadcast_options so;
  so.n_hat = opt.n_hat;
  so.d_hat = opt.d_hat;
  so.seed = opt.seed;
  so.prm = opt.prm;
  so.fast_forward = opt.fast_forward;
  auto setup = prepare_unknown_topology(g, source, so);
  const std::size_t ring_count = setup.rings.rings.size();

  // Batches of Theta(log n) messages [DEV-7].
  coding::batch_layout batches{k, std::max<std::size_t>(1, static_cast<std::size_t>(L))};
  const std::size_t B = batches.batch_count();

  multi_broadcast_result out;
  out.base.phase_rounds.emplace_back("bfs_wave", setup.wave_rounds);
  out.base.phase_rounds.emplace_back("gst_construction",
                                     setup.construction_rounds);
  out.base.phase_rounds.emplace_back("vdist_labeling", setup.labeling_rounds);

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

  radio::completion_tracker tracker(n);
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

  radio::network net(g, {.collision_detection = true});
  std::vector<rng> node_rng;
  node_rng.reserve(n);
  for (node_id v = 0; v < n; ++v)
    node_rng.push_back(rng::for_stream(opt.seed ^ 0x3517ULL, v));

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
  const round_t intra_budget = static_cast<round_t>(
      opt.prm.schedule_slack *
      (6.0 * w_max + 48.0 * L * L +
       8.0 * static_cast<double>(batches.batch_size) * (L + 1) + 64));
  const int handoff_phases =
      dp + static_cast<int>(opt.prm.fec_overhead *
                            static_cast<double>(batches.batch_size));

  auto fresh_packet = [&](node_id v, std::size_t b) {
    auto row = buf[v][b].encode(node_rng[v]);
    auto body = std::make_shared<radio::packet_body>();
    body->coeffs = std::move(row.coeffs);
    body->data = std::move(row.payload);
    return radio::packet::make_coded(static_cast<std::uint32_t>(b),
                                     std::move(body));
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
  core::round_sink sink(net, opt.fast_forward);
  const std::size_t super_epochs = ring_count + B;  // one slack epoch
  round_t pipeline_rounds = 0;
  for (std::size_t e = 0; e < super_epochs; ++e) {
    // Intra-ring RLNC phase: ring j works on batch e - j.
    std::fill(relay.begin(), relay.end(), nullptr);
    for (round_t r = 0; r < intra_budget; ++r) {
      txs.clear();
      for (std::size_t j = 0; j < ring_count; ++j) {
        if (e < j || e - j >= B) continue;
        const std::size_t b = e - j;
        const auto& der = setup.derived[j];
        // Bucketed planning — the exact members whose schedule (and coin)
        // round r consults, in member order (see gst_schedule_index). Slow
        // prompts and stretch heads send fresh combinations; interior
        // stretch nodes relay their predecessor's packet.
        const auto fresh = [&](node_id v) {
          if (buf[v][b].has_anything()) txs.add_owned(v, fresh_packet(v, b));
        };
        if (r % 2 == 1) {
          sched_idx[j].for_each_slow(r, [&](node_id v, int ex) {
            if (node_rng[v].with_probability_pow2(ex)) fresh(v);
          });
        } else {
          for (node_id v : sched_idx[j].fast_bucket(r)) {
            if (scheds[j].query(v, r, node_rng[v]) ==
                gst_schedule::action::none)
              continue;
            if (der.is_stretch_head[v])
              fresh(v);
            else if (relay[v] && relay_batch[v] == b)
              txs.add_owned(v, radio::packet::make_coded(
                                   static_cast<std::uint32_t>(b), relay[v]));
          }
        }
      }
      if (sink.commit(txs, on_rx)) tracker.observe_round(net.stats().rounds);
    }
    pipeline_rounds += intra_budget;

    // FEC handoff phase: ring j's outer boundary pushes batch e - j to ring
    // j+1's roots with fountain packets over Decay.
    for (int ph = 0; ph < handoff_phases; ++ph) {
      for (int ex = 0; ex <= L; ++ex) {
        txs.clear();
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
        if (sink.commit(txs, on_rx)) tracker.observe_round(net.stats().rounds);
      }
    }
    pipeline_rounds += static_cast<round_t>(handoff_phases) * (L + 1);
  }
  sink.flush();
  out.base.phase_rounds.emplace_back("batch_pipeline", pipeline_rounds);

  out.base.completed = tracker.all_done();
  out.base.rounds_to_complete =
      tracker.first_complete_round() < 0
          ? -1
          : setup.total_rounds() + tracker.first_complete_round();
  out.base.rounds_executed = setup.total_rounds() + net.stats().rounds;
  out.base.transmissions = net.stats().transmissions;
  out.base.deliveries = net.stats().deliveries;
  out.base.collisions_observed = net.stats().collisions_observed;
  out.base.energy = net.energy();

  out.payloads_verified = out.base.completed;
  for (node_id v = 0; v < n && out.payloads_verified; ++v) {
    if (setup.rings.ring_of[v] < 0) continue;
    for (std::size_t b = 0; b < B && out.payloads_verified; ++b) {
      if (!buf[v][b].can_decode()) {
        out.payloads_verified = false;
        break;
      }
      const auto got = buf[v][b].decode_all();
      for (std::size_t i = 0; i < got.size(); ++i)
        if (got[i] != messages[batches.batch_begin(b) + i])
          out.payloads_verified = false;
    }
  }
  return out;
}

}  // namespace rn::core
