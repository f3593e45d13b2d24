#include "core/single_broadcast.h"

#include <memory>

#include "common/check.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/bfs_protocols.h"
#include "core/gst_centralized.h"
#include "core/schedule.h"
#include "core/trial_frame.h"
#include "core/virtual_distance.h"
#include "radio/network.h"

namespace rn::core {

radio::broadcast_result run_known_single_broadcast(
    const graph::graph& g, node_id source, const options& opt) {
  const auto t = build_gst_centralized(g, source);
  return run_gst_single_broadcast(g, t, derive(g, t), {source}, opt);
}

radio::broadcast_result run_gst_single_broadcast(
    const graph::graph& g, const gst& t, const gst_derived& d,
    const std::vector<node_id>& informed_init, const options& opt,
    bool mmv_noise, bool classic_levels) {
  const std::size_t n = g.node_count();
  gst_schedule sched(t, d, resolve_n_hat(opt.n_hat, n), !classic_levels);
  const round_t max_rounds =
      relay_budget(t.max_level(), sched.log_n(), opt.prm.schedule_slack);

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

  gst_schedule_index idx(sched);
  // Without MMV noise an uninformed member's coin cannot make it transmit:
  // it draws nothing until a reception informs it in round r, and then
  // catches up on the coins it skipped through r.
  const auto draws = [&](node_id v) { return informed[v] || mmv_noise; };
  const auto emit = [&](node_id v, gst_schedule::action) {
    if (informed[v])
      txs.add(v, data_pkt);
    else if (mmv_noise)
      txs.add(v, noise_pkt);
  };
  round_t now = 0;
  const auto on_rx = [&](const radio::reception& rx) {
    if (informed.receive(rx) && !mmv_noise)
      sched.catch_up(rx.listener, now, node_rng);
  };
  frame.run(max_rounds, txs, on_rx, [&](round_t r) {
    now = r;
    idx.plan(r, node_rng, draws, emit);
  });
  return frame.finish();
}

unknown_topology_setup prepare_unknown_topology(
    const graph::graph& g, node_id source, const options& opt) {
  const std::size_t n_hat = resolve_n_hat(opt.n_hat, g.node_count());

  unknown_topology_setup setup;
  // 1. Collision-wave layering (the only step that uses collision detection).
  auto wave =
      run_collision_wave_bfs(g, source, resolve_d_hat(g, source, opt.d_hat));
  setup.wave_rounds = wave.rounds;

  // 2. Rings.
  level_t depth = 0;
  for (level_t l : wave.level) depth = std::max(depth, l);
  setup.rings =
      decompose_rings(wave.level, ring_width_for(depth, opt.prm.ring_divisor));

  // 3. Distributed GST construction, all rings in parallel.
  options go = opt;
  go.seed = opt.seed ^ 0x657aULL;
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
    const graph::graph& g, node_id source, const options& opt) {
  const std::size_t n = g.node_count();
  const std::size_t n_hat = resolve_n_hat(opt.n_hat, n);
  const int L = log_range(n_hat);
  auto setup = prepare_unknown_topology(g, source, opt);

  // 5. Ring-by-ring dissemination on one shared network.
  trial_frame frame(g, {.collision_detection = true}, opt.fast_forward);
  informed_set informed(frame);
  informed.inform(source);
  for (node_id v = 0; v < n; ++v)
    if (setup.rings.ring_of[v] < 0) frame.tracker().exclude(v);
  std::vector<rng> node_rng = node_coins(n, opt.seed ^ 0xbca57ULL);

  auto body = std::make_shared<radio::packet_body>();
  body->data = {0x11, 0x22, 0x33};
  // One flyweight data packet for the whole dissemination (zero-alloc rounds).
  const radio::packet data_pkt = radio::packet::make_data(source, body);
  const int dp = opt.prm.decay_phases(n_hat);
  radio::round_buffer txs;
  const auto deliver = [&](const radio::reception& rx) {
    informed.receive(rx);
  };
  const auto send_if_informed = [&](node_id v, gst_schedule::action) {
    if (informed[v]) txs.add(v, data_pkt);
  };

  round_t relay_rounds = 0;
  for (std::size_t j = 0; j < setup.rings.rings.size(); ++j) {
    const gst& t = setup.forests[j];
    const auto& members = setup.rings.rings[j].members;
    gst_schedule sched(t, setup.derived[j], n_hat,
                       /*slow_by_virtual_distance=*/true);
    gst_schedule_index idx(sched, members);
    const round_t budget =
        relay_budget(t.max_level(), L, opt.prm.schedule_slack);
    // Uninformed members draw their coins too: their streams feed the Decay
    // handoff after the ring.
    frame.run(budget, txs, deliver,
              [&](round_t r) { idx.plan(r, node_rng, send_if_informed); });
    relay_rounds += budget;

    // Decay handoff: informed outer-boundary nodes of ring j reach the next
    // ring's roots (its inner boundary). An uninformed node draws no coin.
    if (j + 1 < setup.rings.rings.size()) {
      const level_t outer = setup.rings.rings[j].depth;
      const round_t handoff = static_cast<round_t>(dp) * (L + 1);
      frame.run(handoff, txs, deliver, [&](round_t r) {
        const int e = static_cast<int>(r % (L + 1));
        for (node_id v : members)
          if (setup.rings.rel_level[v] == outer && informed[v] &&
              node_rng[v].with_probability_pow2(e))
            txs.add(v, data_pkt);
      });
      relay_rounds += handoff;
    }
  }
  // The rest of the prescribed relay runs idle once every node holds the
  // message.
  frame.advance(relay_rounds - frame.stats().rounds);

  radio::broadcast_result res = frame.finish(setup.total_rounds());
  res.phase_rounds = setup.phase_rounds();
  res.phase_rounds.emplace_back("ring_relay", relay_rounds);
  return res;
}

}  // namespace rn::core
