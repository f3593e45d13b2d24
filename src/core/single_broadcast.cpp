#include "core/single_broadcast.h"

#include <memory>

#include "common/check.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/bfs_protocols.h"
#include "core/gst_broadcast.h"
#include "core/gst_centralized.h"
#include "core/runner.h"
#include "core/schedule.h"
#include "core/virtual_distance.h"
#include "graph/bfs.h"
#include "radio/network.h"

namespace rn::core {

radio::broadcast_result run_known_single_broadcast(
    const graph::graph& g, node_id source,
    const single_broadcast_options& opt) {
  const auto t = build_gst_centralized(g, source);
  const auto d = derive(g, t);
  gst_broadcast_options bo;
  bo.n_hat = opt.n_hat;
  bo.seed = opt.seed;
  bo.prm = opt.prm;
  bo.fast_forward = opt.fast_forward;
  return run_gst_single_broadcast(g, t, d, {source}, bo);
}

unknown_topology_setup prepare_unknown_topology(
    const graph::graph& g, node_id source,
    const single_broadcast_options& opt) {
  const std::size_t n_hat = opt.n_hat == 0 ? g.node_count() : opt.n_hat;
  const level_t d_hat =
      opt.d_hat > 0 ? opt.d_hat : graph::bfs(g, source).max_level;

  unknown_topology_setup setup;
  // 1. Collision-wave layering (the only step that uses collision detection).
  auto wave = run_collision_wave_bfs(g, source, d_hat);
  setup.wave_rounds = wave.rounds;

  // 2. Rings.
  level_t depth = 0;
  for (level_t l : wave.level) depth = std::max(depth, l);
  setup.rings =
      decompose_rings(wave.level, ring_width_for(depth, opt.prm.ring_divisor));

  // 3. Distributed GST construction, all rings in parallel.
  distributed_gst_options go;
  go.n_hat = n_hat;
  go.seed = opt.seed ^ 0x657aULL;
  go.prm = opt.prm;
  go.fast_forward = opt.fast_forward;
  auto built = build_gst_distributed(g, setup.rings, go);
  setup.construction_rounds = built.rounds;
  setup.fallback_finalizations = built.fallback_finalizations;
  setup.fallback_adoptions = built.fallback_adoptions;
  setup.forests = std::move(built.forests);

  // 4. Virtual-distance labeling per ring ([DEV-10]: rings sequential).
  setup.derived.resize(setup.forests.size());
  for (std::size_t j = 0; j < setup.forests.size(); ++j) {
    const gst& t = setup.forests[j];
    auto lab = run_vdist_labeling(g, t, built.parent_rank, built.stretch_child,
                                  n_hat, opt.prm, opt.seed + 31 * j,
                                  opt.fast_forward);
    setup.labeling_rounds += lab.rounds;
    setup.unlabeled += lab.unlabeled;
    auto& der = setup.derived[j];
    const std::size_t n = g.node_count();
    der.stretch_child.assign(n, no_node);
    der.is_stretch_head.assign(n, 0);
    der.virtual_distance = std::move(lab.vdist);
    for (node_id v = 0; v < n; ++v) {
      if (!t.member[v]) continue;
      der.stretch_child[v] = built.stretch_child[v];
      der.is_stretch_head[v] =
          (t.parent[v] == no_node || built.parent_rank[v] != t.rank[v]) ? 1 : 0;
    }
  }
  return setup;
}

radio::broadcast_result run_unknown_cd_single_broadcast(
    const graph::graph& g, node_id source,
    const single_broadcast_options& opt) {
  const std::size_t n = g.node_count();
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  const int L = log_range(n_hat);
  auto setup = prepare_unknown_topology(g, source, opt);

  radio::broadcast_result res;
  res.phase_rounds.emplace_back("bfs_wave", setup.wave_rounds);
  res.phase_rounds.emplace_back("gst_construction", setup.construction_rounds);
  res.phase_rounds.emplace_back("vdist_labeling", setup.labeling_rounds);

  // 5. Ring-by-ring dissemination on one shared network.
  radio::network net(g, {.collision_detection = true});
  radio::completion_tracker tracker(n);
  std::vector<char> informed(n, 0);
  informed[source] = 1;
  tracker.mark(source);
  for (node_id v = 0; v < n; ++v)
    if (setup.rings.ring_of[v] < 0) tracker.exclude(v);

  std::vector<rng> node_rng;
  node_rng.reserve(n);
  for (node_id v = 0; v < n; ++v)
    node_rng.push_back(rng::for_stream(opt.seed ^ 0xbca57ULL, v));

  auto body = std::make_shared<radio::packet_body>();
  body->data = {0x11, 0x22, 0x33};
  // One flyweight data packet for the whole dissemination (zero-alloc rounds).
  const radio::packet data_pkt = radio::packet::make_data(source, body);
  const int dp = opt.prm.decay_phases(n_hat);
  radio::round_buffer txs;
  auto deliver = [&](const radio::reception& rx) {
    if (rx.what == radio::observation::message &&
        rx.pkt->kind == radio::packet_kind::data && !informed[rx.listener]) {
      informed[rx.listener] = 1;
      tracker.mark(rx.listener);
    }
  };

  round_t relay_rounds = 0;
  round_sink sink(net, opt.fast_forward);
  for (std::size_t j = 0; j < setup.rings.rings.size(); ++j) {
    const gst& t = setup.forests[j];
    const auto& members = setup.rings.rings[j].members;
    gst_schedule sched(t, setup.derived[j], n_hat,
                       /*slow_by_virtual_distance=*/true);
    // Bucketed planning: per round only the members whose schedule (and
    // coin) that round consults are visited, in member order — observably
    // identical to the naive scan over every ring member.
    gst_schedule_index idx(sched, members);
    const auto budget = static_cast<round_t>(
        opt.prm.schedule_slack * (6.0 * t.max_level() + 48.0 * L * L + 64));
    for (round_t r = 0; r < budget; ++r) {
      txs.clear();
      if (r % 2 == 0) {
        for (node_id v : idx.fast_bucket(r)) {
          if (informed[v] &&
              sched.query(v, r, node_rng[v]) != gst_schedule::action::none)
            txs.add(v, data_pkt);
        }
      } else {
        // Coin flipped for uninformed members too, as in the naive scan.
        idx.for_each_slow(r, [&](node_id v, int e) {
          if (node_rng[v].with_probability_pow2(e) && informed[v])
            txs.add(v, data_pkt);
        });
      }
      if (sink.commit(txs, deliver))
        tracker.observe_round(net.stats().rounds);
    }
    relay_rounds += budget;

    // Decay handoff: informed outer-boundary nodes of ring j reach the next
    // ring's roots (its inner boundary).
    if (j + 1 < setup.rings.rings.size()) {
      const level_t outer = setup.rings.rings[j].depth;
      bool any_informed_outer = false;
      for (node_id v : members)
        if (setup.rings.rel_level[v] == outer && informed[v]) {
          any_informed_outer = true;
          break;
        }
      if (opt.fast_forward && !any_informed_outer) {
        // Nobody can transmit (and nobody flips a coin: the informed check
        // short-circuits the draw), and the informed set cannot grow without
        // transmissions — the whole handoff block is idle.
        sink.advance(static_cast<round_t>(dp) * (L + 1));
      } else {
        for (int ph = 0; ph < dp; ++ph) {
          for (int e = 0; e <= L; ++e) {
            txs.clear();
            for (node_id v : members) {
              if (setup.rings.rel_level[v] == outer && informed[v] &&
                  node_rng[v].with_probability_pow2(e))
                txs.add(v, data_pkt);
            }
            if (sink.commit(txs, deliver))
              tracker.observe_round(net.stats().rounds);
          }
        }
      }
      relay_rounds += static_cast<round_t>(dp) * (L + 1);
    }
  }
  sink.flush();
  res.phase_rounds.emplace_back("ring_relay", relay_rounds);

  res.completed = tracker.all_done();
  res.rounds_to_complete =
      tracker.first_complete_round() < 0
          ? -1
          : setup.total_rounds() + tracker.first_complete_round();
  res.rounds_executed = setup.total_rounds() + net.stats().rounds;
  res.transmissions = net.stats().transmissions;
  res.deliveries = net.stats().deliveries;
  res.collisions_observed = net.stats().collisions_observed;
  res.energy = net.energy();
  return res;
}

}  // namespace rn::core
