#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "core/gst.h"
#include "core/gst_centralized.h"
#include "core/schedule.h"
#include "core/single_broadcast.h"
#include "core/trial_frame.h"
#include "graph/bfs.h"
#include "graph/generators.h"

namespace rn::core {
namespace {

TEST(Schedule, FastSlotsOnlyForStretchParents) {
  const auto g = graph::star(6);  // hub rank 2, leaves rank 1: no stretches
  const auto t = build_gst_centralized(g, 0);
  const auto d = derive(g, t);
  gst_schedule sched(t, d, g.node_count());
  rng r(1);
  for (round_t tt = 0; tt < 200; tt += 2)
    for (node_id v = 0; v < 6; ++v)
      EXPECT_NE(sched.query(v, tt, r), gst_schedule::action::fast);
}

TEST(Schedule, FastPeriodicityOnPath) {
  const auto g = graph::path(8);
  const auto t = build_gst_centralized(g, 0);
  const auto d = derive(g, t);
  gst_schedule sched(t, d, g.node_count());
  rng r(1);
  // Node v (level v, rank 1) fires fast iff t == 2(v + 3) mod 6L.
  const round_t period = sched.fast_period();
  for (node_id v = 0; v + 1 < 8; ++v) {  // 7 is the stretch tail: never fast
    std::set<round_t> fires;
    for (round_t tt = 0; tt < 4 * period; ++tt)
      if (sched.query(v, tt, r) == gst_schedule::action::fast)
        fires.insert(tt % period);
    ASSERT_EQ(fires.size(), 1u) << "node " << v;
    EXPECT_EQ(*fires.begin(), (2 * (static_cast<round_t>(v) + 3)) % period);
  }
}

TEST(Schedule, SlowSlotsAreOddAndResidueKeyed) {
  const auto g = graph::path(6);
  const auto t = build_gst_centralized(g, 0);
  const auto d = derive(g, t);
  gst_schedule sched(t, d, g.node_count());
  rng r(2);
  for (round_t tt = 0; tt < 600; ++tt) {
    for (node_id v = 0; v < 6; ++v) {
      const auto a = sched.query(v, tt, r);
      if (a == gst_schedule::action::slow_prompt) {
        EXPECT_EQ(tt % 2, 1);
        const auto key = d.virtual_distance[v];
        EXPECT_EQ((tt - 1 - 2 * key) % 6, 0);
      }
    }
  }
}

class FastCollisionFreeTest : public ::testing::TestWithParam<int> {};

TEST_P(FastCollisionFreeTest, StretchChildrenAlwaysHearTheirParent) {
  // Lemma 3.5 (with [DEV-3]): fast transmissions never collide *at their
  // intended receivers* — every stretch child whose parent fires must have
  // that parent as its only fast-transmitting neighbor. (Listeners at the
  // transmitter's own level may legitimately observe collisions.)
  const auto seed = static_cast<std::uint64_t>(GetParam());
  graph::layered_options lo;
  lo.depth = 8;
  lo.width = 5;
  lo.edge_prob = 0.5;
  lo.intra_prob = 0.3;
  lo.seed = seed;
  const auto g = graph::random_layered(lo);
  const auto t = build_gst_centralized(g, 0);
  const auto d = derive(g, t);
  gst_schedule sched(t, d, g.node_count());
  rng r(3);
  for (round_t tt = 0; tt < 2 * sched.fast_period(); tt += 2) {
    std::vector<char> fast(g.node_count(), 0);
    std::vector<node_id> fast_list;
    for (node_id v = 0; v < g.node_count(); ++v)
      if (sched.query(v, tt, r) == gst_schedule::action::fast) {
        fast[v] = 1;
        fast_list.push_back(v);
      }
    for (node_id v : fast_list) {
      const node_id c = d.stretch_child[v];
      ASSERT_NE(c, no_node);  // [DEV-3]: only stretch parents fire
      EXPECT_FALSE(fast[c]);  // the child itself listens in this round
      int tx_neighbors = 0;
      for (node_id w : g.neighbors(c)) tx_neighbors += fast[w] ? 1 : 0;
      EXPECT_EQ(tx_neighbors, 1) << "round " << tt << " child " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastCollisionFreeTest, ::testing::Range(1, 11));

class GstBroadcastTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(GstBroadcastTest, SingleMessageCompletes) {
  const auto [depth, seed, mmv] = GetParam();
  graph::layered_options lo;
  lo.depth = static_cast<std::size_t>(depth);
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = static_cast<std::uint64_t>(seed);
  const auto g = graph::random_layered(lo);
  const auto t = build_gst_centralized(g, 0);
  const auto d = derive(g, t);
  options opt;
  opt.seed = 1000 + static_cast<std::uint64_t>(seed);
  const auto res = run_gst_single_broadcast(g, t, d, {0}, opt, mmv);
  EXPECT_TRUE(res.completed) << "depth=" << depth << " mmv=" << mmv;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GstBroadcastTest,
                         ::testing::Combine(::testing::Values(3, 8, 14),
                                            ::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

TEST(GstBroadcast, MultiRootInformedSet) {
  // Both endpoints of a path start informed; middle gets it fast.
  const auto g = graph::path(11);
  gst t;
  t.roots = {0, 10};
  t.member.assign(11, 1);
  t.level.resize(11);
  t.parent.assign(11, no_node);
  for (node_id v = 0; v < 11; ++v) t.level[v] = std::min<level_t>(v, 10 - v);
  for (node_id v = 1; v <= 4; ++v) t.parent[v] = v - 1;
  t.parent[5] = 4;
  for (node_id v = 6; v <= 9; ++v) t.parent[v] = v + 1;
  t.rank = compute_ranks(t);
  ASSERT_TRUE(validate_gst(g, t).empty());
  const auto d = derive(g, t);
  const auto res = run_gst_single_broadcast(g, t, d, {0, 10}, options{});
  EXPECT_TRUE(res.completed);
}

TEST(Schedule, ClassicLevelKeyDiffers) {
  // In the classic ablation the slow key is the level, not vdist.
  const auto g = graph::path(40);
  const auto t = build_gst_centralized(g, 0);
  const auto d = derive(g, t);
  gst_schedule vd(t, d, g.node_count(), true);
  gst_schedule lv(t, d, g.node_count(), false);
  // Node 30: vdist 1 but level 30; its first possible slow round differs.
  rng r1(1), r2(1);
  bool vd_prompted_early = false, lv_prompted_early = false;
  for (round_t tt = 1; tt < 40; ++tt) {
    if (vd.query(30, tt, r1) == gst_schedule::action::slow_prompt)
      vd_prompted_early = true;
    if (lv.query(30, tt, r2) == gst_schedule::action::slow_prompt)
      lv_prompted_early = true;
  }
  EXPECT_TRUE(vd_prompted_early);   // vdist key: starts at round 3
  EXPECT_FALSE(lv_prompted_early);  // level key: starts at round 61
}

// --- the slow-slot iterator against query() ---------------------------------

/// Seeds whose rng's first draw has exactly k trailing zero bits, for every
/// k below 20 (more than any exponent at L = 18).
const std::vector<std::uint64_t>& tz_seeds() {
  static const std::vector<std::uint64_t> seeds = [] {
    std::vector<std::uint64_t> out(20, 0);
    std::size_t left = out.size();
    for (std::uint64_t s = 1; left > 0; ++s) {
      rng r(s);
      const auto tz = static_cast<std::size_t>(std::countr_zero(r()));
      if (tz < out.size() && out[tz] == 0) {
        out[tz] = s;
        --left;
      }
    }
    return out;
  }();
  return seeds;
}

/// The exponent of the slow coin query(v, t) flips, or -1 when it flips
/// none, read off query() alone: a draw with exactly k trailing zeros fires
/// a coin of exponent e >= 1 iff k >= e, and an exponent-0 coin fires
/// without a draw.
int coin_exponent(const gst_schedule& s, node_id v, round_t t) {
  const auto& seeds = tz_seeds();
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    rng r(seeds[k]);
    const bool fired = s.query(v, t, r) == gst_schedule::action::slow_prompt;
    rng fresh(seeds[k]);
    if (r() == fresh()) return fired ? 0 : -1;  // no draw taken
    if (fired) return static_cast<int>(k);
  }
  ADD_FAILURE() << "node " << v << " round " << t << ": exponent >= 20";
  return -1;
}

/// For both keyings and L = 1, 2 and 18: in every odd round until each
/// member's slow schedule has run three fast periods, for_each_slow yields
/// exactly the members whose coin query() flips, in member order, with
/// query()'s exponent; the draws query() takes from a node's rng
/// through any round r equal slow_draws_through(v, r); over two fast
/// periods every even round's fast_bucket holds exactly the members query()
/// fires fast, in member order, with no draw taken; and the round call,
/// plan(), matches a naive scan that calls query() for every member in
/// every round.
void expect_slow_scan_matches_query(const graph::graph& g, const gst& t,
                                    const std::vector<node_id>& members) {
  const auto d = derive(g, t);
  for (const bool by_vd : {true, false})
    for (const std::size_t n_hat : {std::size_t{2}, std::size_t{4},
                                    std::size_t{1} << 18}) {
      const gst_schedule s(t, d, n_hat, by_vd);
      SCOPED_TRACE(std::string(by_vd ? "vdist" : "level") + " keys, L = " +
                   std::to_string(s.log_n()));
      level_t max_key = 0;
      for (node_id v = 0; v < g.node_count(); ++v)
        max_key = std::max(max_key, s.slow_key(v));
      const round_t horizon =
          1 + 2 * static_cast<round_t>(max_key) + 3 * s.fast_period();

      gst_schedule_index idx(s, members);
      // Ascending, then descending: runners restart their round counter,
      // so a call must not depend on the rounds asked before it.
      std::vector<round_t> rounds;
      rounds.reserve(static_cast<std::size_t>(horizon));
      for (round_t r = 1; r < horizon; r += 2) rounds.push_back(r);
      for (round_t r = horizon - 1 - horizon % 2; r >= 1; r -= 2)
        rounds.push_back(r);
      for (const round_t r : rounds) {
        std::vector<std::pair<node_id, int>> want;
        for (const node_id v : members)
          if (const int e = coin_exponent(s, v, r); e >= 0)
            want.emplace_back(v, e);
        std::vector<std::pair<node_id, int>> got;
        idx.for_each_slow(r, [&](node_id v, int e) { got.emplace_back(v, e); });
        ASSERT_EQ(got, want) << "round " << r;
      }

      for (round_t r = 0; r < 2 * s.fast_period(); r += 2) {
        std::vector<node_id> fast;
        rng coins(1);
        for (const node_id v : members)
          if (s.query(v, r, coins) == gst_schedule::action::fast)
            fast.push_back(v);
        ASSERT_EQ(idx.fast_bucket(r), fast) << "round " << r;
        rng fresh(1);
        ASSERT_EQ(coins(), fresh()) << "round " << r << " drew a coin";
      }

      for (node_id v = 0; v < g.node_count(); ++v) {
        rng scan = rng::for_stream(7, v);
        for (round_t r = 0; r < horizon; ++r) {
          (void)s.query(v, r, scan);
          rng caught_up = rng::for_stream(7, v);
          for (auto k = s.slow_draws_through(v, r); k > 0; --k) caught_up();
          rng probe = scan;
          ASSERT_EQ(probe(), caught_up()) << "node " << v << " round " << r;
        }
      }

      // plan() on per-node streams. Member i starts drawing at a spread-out
      // round s, and every fourth never does. A starter catches up through
      // s - 1, as gst-known does for a member informed in round s - 1.
      // Every third starts right after its second slow slot, which draws
      // at L >= 2: catching up one round short there leaves it behind.
      const round_t never = horizon + 1;
      std::vector<round_t> start(g.node_count(), never);
      for (std::size_t i = 0; i < members.size(); ++i) {
        const node_id v = members[i];
        const level_t key = s.slow_key(v);
        if (i % 4 == 3) continue;
        start[v] = i % 3 == 0 && key != no_level
                       ? 8 + 2 * static_cast<round_t>(key)
                       : static_cast<round_t>(i * 37) % horizon;
      }
      std::vector<rng> scan = node_coins(g.node_count(), 11);
      std::vector<rng> coins = scan;
      const auto drawing = [&](node_id v, round_t r) { return r >= start[v]; };
      for (round_t r = 0; r < horizon; ++r) {
        std::vector<std::pair<node_id, int>> want, got;
        for (const node_id v : members) {
          const auto a = s.query(v, r, scan[v]);
          if (a == gst_schedule::action::fast ||
              (a == gst_schedule::action::slow_prompt && drawing(v, r)))
            want.emplace_back(v, static_cast<int>(a));
        }
        idx.plan(
            r, coins, [&](node_id v) { return drawing(v, r); },
            [&](node_id v, gst_schedule::action a) {
              got.emplace_back(v, static_cast<int>(a));
            });
        ASSERT_EQ(got, want) << "round " << r;
        for (const node_id v : members)
          if (start[v] == r + 1) s.catch_up(v, r, coins);
      }
      for (const node_id v : members) {
        // A member that never drew keeps its stream untouched.
        rng want = start[v] != never ? scan[v] : node_coins(v + 1, 11)[v];
        ASSERT_EQ(coins[v](), want()) << "node " << v;
      }
    }
}

TEST(SlowScan, MatchesQueryOnSingleSourceGsts) {
  graph::layered_options lo;
  lo.depth = 6;
  lo.width = 5;
  lo.edge_prob = 0.4;
  lo.intra_prob = 0.2;
  lo.seed = 3;
  const std::vector<std::pair<const char*, graph::graph>> graphs = {
      {"path", graph::path(25)},
      {"grid", graph::grid(5, 6)},
      {"binary_tree", graph::binary_tree(31)},
      {"caterpillar", graph::caterpillar(8, 2)},
      {"clique_chain", graph::clique_chain(4, 5)},
      {"layered", graph::random_layered(lo)},
      {"gnp", graph::random_gnp_connected(40, 0.1, 9)},
  };
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const auto t = build_gst_centralized(g, 0);
    // Descending ids: the iterator must follow the order it was given.
    std::vector<node_id> members(g.node_count());
    std::iota(members.rbegin(), members.rend(), node_id{0});
    expect_slow_scan_matches_query(g, t, members);
  }
}

TEST(SlowScan, MatchesQueryOnAMaskedMultiRootForest) {
  // A ring-style forest: BFS levels 2..5 of a layered graph, rooted at
  // level 2; nodes outside the ring are non-members the scan never yields.
  graph::layered_options lo;
  lo.depth = 8;
  lo.width = 6;
  lo.edge_prob = 0.35;
  lo.intra_prob = 0.2;
  lo.seed = 8;
  const auto g = graph::random_layered(lo);
  const auto lv = graph::bfs(g, 0).level;
  std::vector<char> mask(g.node_count(), 0);
  std::vector<node_id> roots, members;
  for (node_id v = 0; v < g.node_count(); ++v) {
    if (lv[v] < 2 || lv[v] > 5) continue;
    mask[v] = 1;
    members.push_back(v);
    if (lv[v] == 2) roots.push_back(v);
  }
  const auto t = build_gst_centralized_multi(g, roots, &mask);
  expect_slow_scan_matches_query(g, t, members);
}

}  // namespace
}  // namespace rn::core
