#include "core/schedule.h"

#include <numeric>

#include "common/check.h"
#include "common/math.h"

namespace rn::core {

namespace {

std::vector<node_id> all_nodes(std::size_t n) {
  std::vector<node_id> out(n);
  std::iota(out.begin(), out.end(), node_id{0});
  return out;
}

}  // namespace

gst_schedule::gst_schedule(const gst& t, const gst_derived& d,
                           std::size_t n_hat, bool slow_by_virtual_distance)
    : t_(&t), d_(&d), L_(log_range(n_hat)), slow_by_vd_(slow_by_virtual_distance) {
  RN_REQUIRE(t.node_count() == d.stretch_child.size(),
             "gst and derived data mismatch");
}

gst_schedule::action gst_schedule::query(node_id v, round_t t, rng& r) const {
  if (!t_->member[v]) return action::none;
  const level_t l = t_->level[v];
  const rank_t rk = t_->rank[v];
  if (l == no_level || rk == no_rank) return action::none;

  if (t % 2 == 0) {
    // Fast slot: only stretch members with a same-rank child transmit [DEV-3].
    if (d_->stretch_child[v] == no_node) return action::none;
    const round_t period = 6 * L_;
    const round_t slot = (2 * (static_cast<round_t>(l) + 3 * rk)) % period;
    return (t % period) == slot ? action::fast : action::none;
  }

  // Slow slot, keyed by virtual distance (or level in the classic ablation).
  const level_t key = slow_by_vd_ ? d_->virtual_distance[v] : l;
  if (key == no_level) return action::none;
  const round_t start = 1 + 2 * static_cast<round_t>(key);
  if (t < start) return action::none;  // schedule not yet reached this depth
  if ((t - start) % 6 != 0) return action::none;
  const int e = static_cast<int>(((t - start) / 6) % L_);
  return r.with_probability_pow2(e) ? action::slow_prompt : action::none;
}

round_t gst_schedule::fast_slot(node_id v) const {
  if (!t_->member[v]) return -1;
  const level_t l = t_->level[v];
  const rank_t rk = t_->rank[v];
  if (l == no_level || rk == no_rank) return -1;
  if (d_->stretch_child[v] == no_node) return -1;
  return (2 * (static_cast<round_t>(l) + 3 * rk)) % fast_period();
}

level_t gst_schedule::slow_key(node_id v) const {
  if (!t_->member[v]) return no_level;
  if (t_->level[v] == no_level || t_->rank[v] == no_rank) return no_level;
  return slow_by_vd_ ? d_->virtual_distance[v] : t_->level[v];
}

std::int64_t gst_schedule::slow_draws_through(node_id v, round_t t) const {
  const level_t key = slow_key(v);
  if (key == no_level) return 0;
  const round_t start = 1 + 2 * static_cast<round_t>(key);
  if (t < start) return 0;
  const round_t slots = (t - start) / 6 + 1;
  return slots - (slots + L_ - 1) / L_;
}

void gst_schedule::catch_up(node_id v, round_t t, std::span<rng> coins) const {
  for (auto k = slow_draws_through(v, t); k > 0; --k) coins[v]();
}

round_t relay_budget(level_t depth, int L, double slack, double extra) {
  return static_cast<round_t>(slack *
                              (6.0 * depth + 48.0 * L * L + extra + 64));
}

gst_schedule_index::gst_schedule_index(const gst_schedule& s,
                                       std::span<const node_id> members)
    : period_(s.fast_period()), L_(s.log_n()) {
  fast_.resize(static_cast<std::size_t>(period_ / 2));
  slow_.resize(3);
  for (const node_id v : members) {
    const round_t slot = s.fast_slot(v);
    if (slot >= 0) fast_[static_cast<std::size_t>(slot / 2)].push_back(v);
    const level_t key = s.slow_key(v);
    if (key == no_level) continue;
    auto& b = slow_[static_cast<std::size_t>(key % 3)];
    const auto j = static_cast<std::uint32_t>(key / 3);
    b.members.push_back({v, j});
    b.max_j = std::max(b.max_j, j);
  }
  std::uint32_t max_j = 0;
  for (const auto& b : slow_) max_j = std::max(max_j, b.max_j);
  exponent_.resize(static_cast<std::size_t>(max_j) + 1);
}

gst_schedule_index::gst_schedule_index(const gst_schedule& s)
    : gst_schedule_index(s, all_nodes(s.node_count())) {}

}  // namespace rn::core
