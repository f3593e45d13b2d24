#include "core/gst_distributed.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/check.h"
#include "common/math.h"
#include "core/bfs_protocols.h"
#include "core/trial_frame.h"
#include "radio/network.h"

namespace rn::core {

namespace {

struct problem_slot {
  std::int32_t ring;
  level_t blue_level;
  rank_t rank;
  round_t slot;
  int round_class;  ///< absolute blue layer mod 3 (pipelined mode)
};

struct active_problem {
  problem_slot meta;
  std::unique_ptr<assignment_problem> prob;
};

/// One slot's problems as one driven instance. Pipelined, a problem of
/// round class c consumes only the slot's rounds r ≡ c (mod 3); sequential,
/// it consumes every round.
struct slot_problems {
  std::vector<active_problem>& active;
  const build_state& st;
  round_t rounds;
  bool pipelined;
  round_t r = 0;

  [[nodiscard]] bool finished() const { return r >= rounds; }

  /// The longest run of rounds from r in which every consuming problem is
  /// quiet (plans nothing, draws nothing), so nobody transmits and nothing
  /// is received. A problem's quiet budget q spans the next lag + stride·q
  /// slot rounds.
  [[nodiscard]] round_t quiet_rounds() const {
    round_t k = rounds - r;
    for (const auto& ap : active)
      if (!ap.prob->finished())
        k = std::min(k, lag(ap) + stride() * ap.prob->quiet_rounds());
    return k;
  }

  void skip_rounds(round_t k) {
    for (auto& ap : active)
      if (!ap.prob->finished() && k > lag(ap))
        ap.prob->skip_rounds((k - lag(ap) + stride() - 1) / stride());
    r += k;
  }

  void plan(radio::round_buffer& txs) {
    for (auto& ap : active)
      if (consumes(ap)) ap.prob->plan(txs);
  }

  /// Delivers to the unique consuming problem whose layers contain the
  /// listener (blue layer λ or red layer λ-1 of the listener's ring).
  void on_reception(const radio::reception& rx) {
    const auto ring = st.ring_of[rx.listener];
    if (ring < 0) return;
    const level_t lv = st.rel_level[rx.listener];
    for (auto& ap : active) {
      if (!consumes(ap) || ap.meta.ring != ring) continue;
      if (ap.meta.blue_level == lv || ap.meta.blue_level == lv + 1) {
        ap.prob->on_reception(rx);
        return;
      }
    }
  }

  void end_round() {
    for (auto& ap : active)
      if (consumes(ap)) ap.prob->end_round();
    ++r;
  }

  /// Rounds until `ap` next consumes one, and between two it consumes.
  [[nodiscard]] round_t lag(const active_problem& ap) const {
    return pipelined ? (ap.meta.round_class - r % 3 + 3) % 3 : 0;
  }
  [[nodiscard]] round_t stride() const { return pipelined ? 3 : 1; }
  [[nodiscard]] bool consumes(const active_problem& ap) const {
    return !ap.prob->finished() && lag(ap) == 0;
  }
};

}  // namespace

distributed_gst_outcome build_gst_distributed(
    const graph::graph& g, const ring_decomposition& rd, const options& opt,
    bool pipelined) {
  const std::size_t n = g.node_count();
  const std::size_t n_hat = resolve_n_hat(opt.n_hat, n);
  const int L = log_range(n_hat);
  const int dp = opt.prm.decay_phases(n_hat);
  const int epochs = opt.prm.epochs(n_hat);
  const int iters = opt.prm.recruit_iterations(n_hat);
  const int exp_step = opt.prm.recruit_exp_step(n_hat);
  const rank_t max_rank = static_cast<rank_t>(L) + 1;

  build_state st(n);
  st.ring_of = rd.ring_of;
  st.rel_level = rd.rel_level;

  // Per (ring, relative level) node lists.
  level_t w_max = 0;
  for (const auto& ring : rd.rings) w_max = std::max(w_max, ring.depth);
  std::vector<std::vector<std::vector<node_id>>> layer_nodes(rd.rings.size());
  for (std::size_t j = 0; j < rd.rings.size(); ++j) {
    layer_nodes[j].resize(static_cast<std::size_t>(rd.rings[j].depth) + 1);
    for (node_id v : rd.rings[j].members)
      layer_nodes[j][static_cast<std::size_t>(rd.rel_level[v])].push_back(v);
  }
  // Roots count as assigned (they have no parent to find).
  for (const auto& ring : rd.rings)
    for (node_id r : ring.roots) st.assigned[r] = 1;

  // Enumerate problems with their slots.
  const round_t R =
      assignment_problem::rounds_required(L, dp, epochs, iters);
  const round_t slot_len = pipelined ? 3 * R : R;
  std::vector<problem_slot> problems;
  round_t max_slot = 0;
  for (std::size_t j = 0; j < rd.rings.size(); ++j) {
    for (level_t lam = 1; lam <= rd.rings[j].depth; ++lam) {
      for (rank_t i = max_rank; i >= 1; --i) {
        round_t slot;
        if (pipelined) {
          slot = 2 * static_cast<round_t>(w_max - lam) +
                 static_cast<round_t>(max_rank - i);
        } else {
          slot = static_cast<round_t>(w_max - lam) * max_rank +
                 static_cast<round_t>(max_rank - i);
        }
        const int cls = static_cast<int>(
            (rd.rings[j].first_layer + lam) % 3);
        problems.push_back({static_cast<std::int32_t>(j), lam, i, slot, cls});
        max_slot = std::max(max_slot, slot);
      }
    }
  }
  std::sort(problems.begin(), problems.end(),
            [](const problem_slot& a, const problem_slot& b) {
              return a.slot < b.slot;
            });

  trial_frame frame(g, {.collision_detection = false}, opt.fast_forward);
  std::vector<active_problem> active;  // the current slot's problems
  std::size_t next_problem = 0;
  std::uint64_t problem_counter = 0;

  for (round_t slot = 0; slot <= max_slot; ++slot) {
    active.clear();
    while (next_problem < problems.size() &&
           problems[next_problem].slot == slot) {
      const auto& ps = problems[next_problem];
      assignment_problem::config cfg;
      cfg.g = &g;
      cfg.st = &st;
      cfg.ring = ps.ring;
      cfg.blue_level = ps.blue_level;
      cfg.target_rank = ps.rank;
      cfg.blue_layer_nodes =
          layer_nodes[static_cast<std::size_t>(ps.ring)]
                     [static_cast<std::size_t>(ps.blue_level)];
      cfg.red_layer_nodes =
          layer_nodes[static_cast<std::size_t>(ps.ring)]
                     [static_cast<std::size_t>(ps.blue_level - 1)];
      cfg.L = L;
      cfg.decay_phases = dp;
      cfg.epochs = epochs;
      cfg.recruit_iterations = iters;
      cfg.recruit_exp_step = exp_step;
      cfg.seed = opt.seed * 0x9e3779b9ULL + (++problem_counter) * 7919ULL;
      active.push_back(
          {ps, std::make_unique<assignment_problem>(std::move(cfg))});
      ++next_problem;
    }

    slot_problems inst{active, st, slot_len, pipelined};
    frame.drive(inst);
  }

  // Roots that never got children are leaves.
  for (const auto& ring : rd.rings)
    for (node_id r : ring.roots)
      if (st.rank[r] == no_rank) st.rank[r] = 1;
  // Deepest-layer nodes (and any childless member) default to rank 1 if their
  // rank-1 problem never ran (e.g. depth-0 rings).
  for (node_id v = 0; v < n; ++v)
    if (st.ring_of[v] >= 0 && st.rank[v] == no_rank) st.rank[v] = 1;

  distributed_gst_outcome out;
  out.rounds = frame.stats().rounds;
  out.transmissions = frame.stats().transmissions;
  out.fallback_finalizations = st.fallback_finalizations;
  out.fallback_adoptions = st.fallback_adoptions;
  out.parent_rank = st.parent_rank;
  out.stretch_child = st.stretch_child;
  out.forests.resize(rd.rings.size());
  for (std::size_t j = 0; j < rd.rings.size(); ++j) {
    gst& t = out.forests[j];
    t.roots = rd.rings[j].roots;
    t.member.assign(n, 0);
    t.level.assign(n, no_level);
    t.parent.assign(n, no_node);
    t.rank.assign(n, no_rank);
    for (node_id v : rd.rings[j].members) {
      t.member[v] = 1;
      t.level[v] = rd.rel_level[v];
      t.parent[v] = st.parent[v];
      t.rank[v] = st.rank[v];
    }
  }
  return out;
}

distributed_gst_outcome build_gst_distributed_single(
    const graph::graph& g, node_id source, const options& opt,
    bool pipelined) {
  // Layering first (no CD needed), then a single whole-graph ring.
  const level_t ecc = resolve_d_hat(g, source);
  auto layering = run_decay_epoch_bfs(g, source, ecc,
                                      resolve_n_hat(opt.n_hat, g.node_count()),
                                      opt.prm, opt.seed ^ 0xbf5ULL,
                                      opt.fast_forward);
  const auto rd = decompose_rings(layering.level, ecc + 1);
  auto out = build_gst_distributed(g, rd, opt, pipelined);
  out.rounds += layering.rounds;
  out.transmissions += layering.transmissions;
  return out;
}

}  // namespace rn::core
