#include "core/virtual_distance.h"

#include "common/check.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/trial_frame.h"
#include "radio/network.h"

namespace rn::core {

vdist_labeling_result run_vdist_labeling(
    const graph::graph& g, const gst& t,
    const std::vector<rank_t>& parent_rank,
    const std::vector<node_id>& stretch_child, std::size_t n_hat,
    const params& prm, std::uint64_t seed, bool fast_forward) {
  const std::size_t n = g.node_count();
  const std::size_t nh = resolve_n_hat(n_hat, n);
  const int L = log_range(nh);
  const int dp = prm.decay_phases(nh);
  const level_t depth = t.max_level();
  const rank_t max_rank = t.max_rank();

  vdist_labeling_result out;
  out.vdist.assign(n, no_level);

  const level_t max_d = 2 * static_cast<level_t>(L) + 1;
  // at_distance[d] = number of members currently labeled d. Labels only ever
  // take the value d+1 during iteration d, so when no node holds label d at
  // the start of iteration d none ever will — every remaining round is idle.
  std::vector<std::int64_t> at_distance(static_cast<std::size_t>(max_d) + 2, 0);
  for (node_id r : t.roots) {
    out.vdist[r] = 0;
    ++at_distance[0];
  }

  auto is_head = [&](node_id v) {
    return t.parent[v] == no_node || parent_rank[v] != t.rank[v];
  };

  // Stage-1 transmitter candidates, bucketed by (rank, level): only matching
  // parents (members with a same-rank child [DEV-3]) ever fire, so per-round
  // planning walks one bucket instead of every node. Bucket order preserves
  // the ascending node order of the naive scan.
  std::vector<std::vector<node_id>> stage1_bucket(
      static_cast<std::size_t>(max_rank) * static_cast<std::size_t>(depth));
  for (node_id v = 0; v < n; ++v) {
    if (!t.member[v] || stretch_child[v] == no_node) continue;
    const rank_t r = t.rank[v];
    const level_t l = t.level[v];
    if (r < 1 || r > max_rank || l < 0 || l >= depth) continue;
    stage1_bucket[static_cast<std::size_t>(r - 1) * depth +
                  static_cast<std::size_t>(l)]
        .push_back(v);
  }

  trial_frame frame(g, {.collision_detection = false}, fast_forward);
  std::vector<rng> node_rng = node_coins(n, seed);

  radio::round_buffer txs;
  auto rx_stretch = [&](const radio::reception& rx, level_t d) {
    // A stretch child adopts d+1 when it hears its own parent.
    const node_id u = rx.listener;
    if (rx.what != radio::observation::message) return;
    if (!t.member[u] || out.vdist[u] != no_level) return;
    if (rx.from == t.parent[u] && parent_rank[u] == t.rank[u]) {
      out.vdist[u] = d + 1;
      ++at_distance[static_cast<std::size_t>(d) + 1];
    }
  };

  const round_t stage1_rounds =
      static_cast<round_t>(max_rank) * 2 * static_cast<round_t>(depth);
  const round_t stage2_rounds = static_cast<round_t>(dp) * (L + 1);
  std::vector<node_id> at_d;
  for (level_t d = 0; d <= max_d; ++d) {
    if (fast_forward && at_distance[static_cast<std::size_t>(d)] == 0) {
      frame.advance(static_cast<round_t>(max_d - d + 1) *
                   (stage1_rounds + stage2_rounds));
      break;
    }
    // Stage 1: flood d+1 down stretches headed by distance-d heads.
    for (rank_t r = 1; r <= max_rank; ++r) {
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (level_t l = 0; l < depth; ++l) {
          txs.clear();
          for (node_id v : stage1_bucket[static_cast<std::size_t>(r - 1) *
                                             depth +
                                         static_cast<std::size_t>(l)]) {
            const bool fire = sweep == 0
                                  ? (out.vdist[v] == d && is_head(v))
                                  : (out.vdist[v] == d + 1);
            if (fire) txs.add_owned(v, radio::packet::make_beacon(v));
          }
          frame.commit(txs,
                       [&](const radio::reception& rx) { rx_stretch(rx, d); });
        }
      }
    }
    // Stage 2: Decay from all distance-d nodes; unlabeled hearers are d+1.
    // The distance-d set is fixed for the whole stage (receptions only ever
    // assign d+1), so it is collected once, in ascending node order.
    at_d.clear();
    for (node_id v = 0; v < n; ++v)
      if (t.member[v] && out.vdist[v] == d) at_d.push_back(v);
    for (int ph = 0; ph < dp; ++ph) {
      for (int e = 0; e <= L; ++e) {
        txs.clear();
        for (node_id v : at_d) {
          if (node_rng[v].with_probability_pow2(e))
            txs.add_owned(v, radio::packet::make_beacon(v));
        }
        frame.commit(txs, [&](const radio::reception& rx) {
          const node_id u = rx.listener;
          if (rx.what == radio::observation::message && t.member[u] &&
              out.vdist[u] == no_level) {
            out.vdist[u] = d + 1;
            ++at_distance[static_cast<std::size_t>(d) + 1];
          }
        });
      }
    }
  }

  for (node_id v = 0; v < n; ++v)
    if (t.member[v] && out.vdist[v] == no_level) ++out.unlabeled;
  out.rounds = frame.stats().rounds;
  out.transmissions = frame.stats().transmissions;
  return out;
}

}  // namespace rn::core
