#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "radio/network.h"
#include "radio/result.h"

namespace rn::radio {
namespace {

using graph::path;
using graph::star;

packet beacon(node_id v) { return packet::make_beacon(v); }

struct observed {
  std::map<node_id, observation> what;
  std::map<node_id, node_id> from;
};

observed run_round(network& net,
                   std::initializer_list<std::pair<node_id, packet>> txs) {
  round_buffer buf;
  for (const auto& [from, pkt] : txs) buf.add_owned(from, pkt);
  observed o;
  net.step(buf, [&](const reception& rx) {
    o.what[rx.listener] = rx.what;
    if (rx.what == observation::message) o.from[rx.listener] = rx.from;
  });
  return o;
}

TEST(Network, SingleTransmitterDelivers) {
  const auto g = path(3);  // 0-1-2
  network net(g, {.collision_detection = true});
  const auto o = run_round(net, {{1, beacon(1)}});
  EXPECT_EQ(o.what.at(0), observation::message);
  EXPECT_EQ(o.what.at(2), observation::message);
  EXPECT_EQ(o.from.at(0), 1u);
}

TEST(Network, TwoTransmittersCollideWithCd) {
  const auto g = star(4);  // hub 0, leaves 1..3
  network net(g, {.collision_detection = true});
  const auto o = run_round(net, {{1, beacon(1)}, {2, beacon(2)}});
  EXPECT_EQ(o.what.at(0), observation::collision);
  EXPECT_EQ(o.what.count(3), 0u);  // leaf 3 has no transmitting neighbor
}

TEST(Network, TwoTransmittersSilentWithoutCd) {
  const auto g = star(4);
  network net(g, {.collision_detection = false});
  const auto o = run_round(net, {{1, beacon(1)}, {2, beacon(2)}});
  EXPECT_EQ(o.what.count(0), 0u);  // indistinguishable from silence
}

TEST(Network, TransmitterDoesNotHear) {
  const auto g = path(2);
  network net(g, {.collision_detection = true});
  const auto o = run_round(net, {{0, beacon(0)}, {1, beacon(1)}});
  // Both transmit; neither receives anything (half duplex).
  EXPECT_TRUE(o.what.empty());
}

TEST(Network, NonNeighborUnaffected) {
  const auto g = path(4);  // 0-1-2-3
  network net(g, {.collision_detection = true});
  const auto o = run_round(net, {{0, beacon(0)}});
  EXPECT_EQ(o.what.count(2), 0u);
  EXPECT_EQ(o.what.count(3), 0u);
}

TEST(Network, CollisionThenCleanRound) {
  const auto g = star(4);
  network net(g, {.collision_detection = true});
  run_round(net, {{1, beacon(1)}, {2, beacon(2)}});
  const auto o = run_round(net, {{3, beacon(3)}});
  EXPECT_EQ(o.what.at(0), observation::message);
  EXPECT_EQ(o.from.at(0), 3u);
}

TEST(Network, DoubleTransmitIsContractError) {
  const auto g = path(2);
  network net(g, {.collision_detection = true});
  round_buffer txs;
  const packet b = beacon(0);
  txs.add(0, b);
  txs.add(0, b);
  EXPECT_THROW(net.step(txs, [](const reception&) {}), contract_error);
}

TEST(Network, StatsCount) {
  const auto g = star(5);
  network net(g, {.collision_detection = true});
  run_round(net, {{1, beacon(1)}, {2, beacon(2)}});  // collision at hub
  run_round(net, {{1, beacon(1)}});                  // delivery to hub
  run_round(net, {});                                // silence
  EXPECT_EQ(net.stats().rounds, 3);
  EXPECT_EQ(net.stats().transmissions, 3);
  EXPECT_EQ(net.stats().deliveries, 1);
  EXPECT_EQ(net.stats().collisions_observed, 1);
}

TEST(Network, PacketContentRoundTrips) {
  const auto g = path(2);
  network net(g, {.collision_detection = true});
  auto body = std::make_shared<packet_body>();
  body->data = {1, 2, 3};
  const packet p = packet::make_data(7, body);
  round_buffer txs;
  txs.add(0, p);
  packet received;
  net.step(txs, [&](const reception& rx) {
    ASSERT_EQ(rx.what, observation::message);
    received = *rx.pkt;
  });
  EXPECT_EQ(received.kind, packet_kind::data);
  EXPECT_EQ(received.a, 7u);
  EXPECT_EQ(received.body->data, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Network, PacketFactories) {
  EXPECT_EQ(packet::make_pair(3, 4).kind, packet_kind::pair);
  EXPECT_EQ(packet::make_pair(3, 4).a, 3u);
  EXPECT_EQ(packet::make_pair(3, 4).b, 4u);
  EXPECT_EQ(packet::make_sigma(2).a, 2u);
  EXPECT_EQ(packet::make_rank(5, 3).x, 3u);
  EXPECT_EQ(packet::make_noise().kind, packet_kind::noise);
  EXPECT_EQ(packet::make_ack(1, 2).b, 2u);
}

TEST(Network, EnergyAccounting) {
  const auto g = path(3);
  network net(g, {.collision_detection = true});
  run_round(net, {{0, beacon(0)}, {1, beacon(1)}});
  run_round(net, {{1, beacon(1)}});
  EXPECT_EQ(net.energy()[0], 1);
  EXPECT_EQ(net.energy()[1], 2);
  EXPECT_EQ(net.energy()[2], 0);
  EXPECT_EQ(net.max_energy(), 2);
}

TEST(Network, FlushTotalsOnDemandNeverDoubleCounts) {
  const auto g = path(3);
  const engine_totals before = network::process_totals();
  {
    network net(g, {.collision_detection = true});
    run_round(net, {{1, beacon(1)}});
    run_round(net, {});
    net.advance(10);
    // A live network publishes on demand...
    net.flush_totals();
    engine_totals t = network::process_totals();
    EXPECT_EQ(t.stepped_rounds - before.stepped_rounds, 2);
    EXPECT_EQ(t.skipped_rounds - before.skipped_rounds, 10);
    // ...idempotently (only deltas since the last flush are added)...
    net.flush_totals();
    t = network::process_totals();
    EXPECT_EQ(t.stepped_rounds - before.stepped_rounds, 2);
    EXPECT_EQ(t.skipped_rounds - before.skipped_rounds, 10);
    run_round(net, {{1, beacon(1)}});
  }
  // ...and the destructor flushes exactly the remainder.
  const engine_totals t = network::process_totals();
  EXPECT_EQ(t.stepped_rounds - before.stepped_rounds, 3);
  EXPECT_EQ(t.skipped_rounds - before.skipped_rounds, 10);
}

TEST(RoundBuffer, FlyweightAndOwnedPacketsDeliver) {
  const auto g = path(3);  // 0-1-2
  network net(g, {.collision_detection = true});
  const packet flyweight = packet::make_beacon(0);
  round_buffer txs;
  std::map<node_id, node_id> from;
  const auto record = [&](const reception& rx) {
    ASSERT_EQ(rx.what, observation::message);
    from[rx.listener] = rx.pkt->a;
  };
  txs.add(0, flyweight);  // referenced, caller-owned
  net.step(txs, record);
  EXPECT_EQ(from.at(1), 0u);
  txs.clear();
  txs.add_owned(2, packet::make_beacon(2));  // copied into the arena
  net.step(txs, record);
  EXPECT_EQ(from.at(1), 2u);
  EXPECT_EQ(net.stats().transmissions, 2);
  EXPECT_EQ(net.stats().deliveries, 2);
}

TEST(RoundBuffer, ArenaSlotsAreStableAndRecycled) {
  const auto g = star(6);
  network net(g, {.collision_detection = true});
  round_buffer txs;
  for (int round = 0; round < 3; ++round) {
    txs.clear();
    // Enough owned packets to force arena growth; addresses handed to the
    // buffer must stay valid while it grows (deque arena).
    txs.add_owned(1, packet::make_beacon(1));
    for (node_id v = 2; v < 6; ++v)
      txs.add_owned(v, packet::make_pair(v, v));
    std::size_t heard = 0;
    net.step(txs, [&](const reception& rx) {
      ++heard;
      EXPECT_EQ(rx.listener, 0u);
      EXPECT_EQ(rx.what, observation::collision);
    });
    EXPECT_EQ(heard, 1u);  // hub: 5 transmitters collide
  }
  EXPECT_EQ(net.stats().transmissions, 15);
}

TEST(RoundBuffer, DoubleTransmitIsContractError) {
  const auto g = path(2);
  network net(g, {.collision_detection = true});
  const packet b = beacon(0);
  round_buffer txs;
  txs.add(0, b);
  txs.add(0, b);
  EXPECT_THROW(net.step(txs, [](const reception&) {}), contract_error);
}

// --- intra-trial sharded walk --------------------------------------------
//
// Contract under test: the sharded walk (listener blocks owned by exactly
// one walker each, dispatch in fixed block order) observes, delivers, and
// counts exactly what the serial walk does — reception for reception, in
// the same order — at every team size.

/// Steps both networks through the same transmit list and asserts that the
/// full reception sequence (listener, observation, sender) matches.
void expect_same_round(network& serial, network& sharded,
                       const round_buffer& txs) {
  std::vector<std::tuple<node_id, observation, node_id>> a, b;
  serial.step(txs, [&](const reception& rx) {
    a.emplace_back(rx.listener, rx.what, rx.from);
  });
  sharded.step(txs, [&](const reception& rx) {
    b.emplace_back(rx.listener, rx.what, rx.from);
  });
  ASSERT_EQ(a, b);
}

TEST(ShardedStep, MatchesSerialWalkOnRandomRounds) {
  const std::size_t n = 700;
  const auto g = graph::random_gnp_connected(n, 10.0 / static_cast<double>(n), 7);
  network serial(g, {.collision_detection = true});
  network sharded(g, {.collision_detection = true});
  sharded.set_min_parallel_volume(0);  // every non-empty round goes parallel
  sharded.enable_intra_trial(4);
  ASSERT_EQ(sharded.intra_trial_threads(), 4u);

  std::vector<packet> beacons;
  beacons.reserve(n);
  for (node_id v = 0; v < n; ++v) beacons.push_back(packet::make_beacon(v));
  rng r(123);
  round_buffer txs;
  for (int round = 0; round < 40; ++round) {
    txs.clear();
    // Sweep densities from ~every-other-node to ~1/64 so rounds exercise
    // collisions, clean deliveries, and empty neighborhoods.
    const int e = 1 + round % 6;
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(e)) txs.add(v, beacons[v]);
    expect_same_round(serial, sharded, txs);
  }
  EXPECT_EQ(serial.stats().transmissions, sharded.stats().transmissions);
  EXPECT_EQ(serial.stats().deliveries, sharded.stats().deliveries);
  EXPECT_EQ(serial.stats().collisions_observed,
            sharded.stats().collisions_observed);
  EXPECT_EQ(serial.energy(), sharded.energy());
}

TEST(ShardedStep, BoundaryListenersHearCollisionsIdentically) {
  // A star-of-stars whose hubs straddle the degree-balanced block
  // boundaries: every hub hears a collision assembled from transmitters
  // that live in *other* blocks, so any cross-shard hit-word race or
  // dropped slice would change what a boundary listener observes.
  graph::graph::builder b(600);
  for (node_id hub = 0; hub < 600; hub += 60)
    for (node_id leaf = 1; leaf < 60; ++leaf) b.add_edge(hub, hub + leaf);
  for (node_id hub = 0; hub < 540; hub += 60) b.add_edge(hub, hub + 60);
  const auto g = std::move(b).build();

  network serial(g, {.collision_detection = true});
  network sharded(g, {.collision_detection = true});
  sharded.set_min_parallel_volume(0);
  sharded.enable_intra_trial(3);
  ASSERT_EQ(sharded.intra_trial_threads(), 3u);

  std::vector<packet> beacons;
  beacons.reserve(600);
  for (node_id v = 0; v < 600; ++v) beacons.push_back(packet::make_beacon(v));
  round_buffer txs;
  // All leaves transmit: every hub observes a collision; then exactly one
  // leaf per star transmits: every hub hears a clean message.
  for (node_id v = 0; v < 600; ++v)
    if (v % 60 != 0) txs.add(v, beacons[v]);
  expect_same_round(serial, sharded, txs);
  txs.clear();
  for (node_id hub = 0; hub < 600; hub += 60) txs.add(hub + 7, beacons[hub + 7]);
  expect_same_round(serial, sharded, txs);
  EXPECT_EQ(serial.stats().deliveries, sharded.stats().deliveries);
  EXPECT_EQ(serial.stats().collisions_observed,
            sharded.stats().collisions_observed);
}

TEST(ShardedStep, TeamResizeAndVolumeFloor) {
  const auto g = star(64);
  network net(g, {.collision_detection = true});
  EXPECT_EQ(net.intra_trial_threads(), 1u);  // default policy: serial
  // The whole adjacency is below the volume floor, so a forced team stays
  // at one member, starts no thread and walks no round in parallel — the
  // round must still resolve normally.
  const std::int64_t parallel =
      network::process_shard_totals().parallel_rounds;
  net.enable_intra_trial(2);
  EXPECT_EQ(net.intra_trial_threads(), 1u);
  run_round(net, {{1, beacon(1)}});
  EXPECT_EQ(net.stats().deliveries, 1);
  EXPECT_EQ(network::process_shard_totals().parallel_rounds, parallel);
  net.enable_intra_trial(1);
  EXPECT_EQ(net.intra_trial_threads(), 1u);
  run_round(net, {{2, beacon(2)}});
  EXPECT_EQ(net.stats().deliveries, 2);
}

TEST(ShardedStep, ErasureDrawsAreShardCountInvariant) {
  // The erasure RNG is consumed at dispatch, which runs in the canonical
  // block order — so lossy-channel results must also be byte-identical
  // across team sizes.
  const std::size_t n = 400;
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 3);
  const model m{.collision_detection = false,
                .erasure_prob = 0.4,
                .erasure_seed = 99};
  network serial(g, m);
  network sharded(g, m);
  sharded.set_min_parallel_volume(0);
  sharded.enable_intra_trial(4);
  ASSERT_EQ(sharded.intra_trial_threads(), 4u);

  std::vector<packet> beacons;
  beacons.reserve(n);
  for (node_id v = 0; v < n; ++v) beacons.push_back(packet::make_beacon(v));
  rng r(5);
  round_buffer txs;
  for (int round = 0; round < 30; ++round) {
    txs.clear();
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(2)) txs.add(v, beacons[v]);
    expect_same_round(serial, sharded, txs);
  }
  EXPECT_GT(serial.stats().erasures, 0);
  EXPECT_EQ(serial.stats().erasures, sharded.stats().erasures);
}

// Whole-run replays: a fixed multi-round transmit schedule stepped on a
// fresh network, its full reception log and erasure count compared against
// the serial run's.

using rx_log = std::vector<std::tuple<node_id, observation, node_id>>;
using schedule_t = std::vector<std::vector<node_id>>;

/// Steps `schedule` on `net` (each round's list in the given order) and
/// appends every reception to `log`; `before(r)` runs ahead of round r.
template <class Before>
void step_schedule(network& net, const schedule_t& schedule, rx_log& log,
                   Before&& before) {
  std::vector<packet> beacons;
  beacons.reserve(net.node_count());
  for (node_id v = 0; v < net.node_count(); ++v)
    beacons.push_back(packet::make_beacon(v));
  round_buffer txs;
  for (std::size_t r = 0; r < schedule.size(); ++r) {
    before(r);
    txs.clear();
    for (node_id v : schedule[r]) txs.add(v, beacons[v]);
    net.step(txs, [&](const reception& rx) {
      log.emplace_back(rx.listener, rx.what, rx.from);
    });
  }
}

/// A run's full reception log plus its erasure draws that came up lost.
struct replay_log {
  rx_log rx;
  std::int64_t erasures = 0;
  bool operator==(const replay_log&) const = default;
};

/// Replays a fixed multi-round transmit schedule on a fresh network at the
/// given team size (whose team takes every non-empty round); returns the
/// full reception log.
replay_log replay_schedule(const graph::graph& g, const model& m,
                           unsigned team, const schedule_t& schedule) {
  network net(g, m);
  if (team > 1) {
    net.set_min_parallel_volume(0);
    net.enable_intra_trial(team);
  }
  EXPECT_EQ(net.intra_trial_threads(), team);
  replay_log out;
  step_schedule(net, schedule, out.rx, [](std::size_t) {});
  out.erasures = net.stats().erasures;
  return out;
}

/// Random schedule sweeping densities from ~1/2 to ~1/2^6 active nodes.
schedule_t random_schedule(std::size_t n, int rounds, std::uint64_t seed) {
  rng r(seed);
  schedule_t schedule(rounds);
  for (int round = 0; round < rounds; ++round) {
    const int e = 1 + round % 6;
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(e)) schedule[round].push_back(v);
  }
  return schedule;
}

/// Rounds the walk loop's prefetch must not trip over: no transmitter, one,
/// and fewer than each prefetch distance (8 row heads, 16 row offsets
/// ahead), in shuffled id order — appended to `schedule`.
void add_short_rounds(schedule_t& schedule, std::size_t n,
                      std::uint64_t seed) {
  rng r(seed);
  for (const std::size_t m : {0u, 1u, 5u, 12u, 17u}) {
    std::vector<node_id>& round = schedule.emplace_back();
    while (round.size() < m) {
      const auto v = static_cast<node_id>(r.uniform(n));
      if (std::find(round.begin(), round.end(), v) == round.end())
        round.push_back(v);
    }
  }
}

/// A lossy CD channel: every reception draws from the erasure stream.
const model kLossy{.collision_detection = true,
                   .erasure_prob = 0.3,
                   .erasure_seed = 11};

TEST(ShardedStep, LossyReplayMatchesSerialAtEveryTeam) {
  // Each member walks its own interleaved slice, so every team — including
  // sizes that do not divide the 32 blocks, and one member per block — must
  // equal the serial reception log and erasure draws on a lossy channel.
  const std::size_t n = 700;
  const auto g = graph::random_gnp_connected(n, 10.0 / static_cast<double>(n), 7);
  auto schedule = random_schedule(n, 20, 42);
  add_short_rounds(schedule, n, 43);
  const replay_log ref = replay_schedule(g, kLossy, 1, schedule);
  ASSERT_GT(ref.erasures, 0);
  for (unsigned team : {1u, 2u, 3u, 5u, 32u}) {
    SCOPED_TRACE("team " + std::to_string(team));
    EXPECT_EQ(ref, replay_schedule(g, kLossy, team, schedule));
  }
}

TEST(ShardedStep, BelowTheFloorTheCallerWalksEverySlice) {
  // A team exists, but no round reaches the volume floor: the caller walks
  // the three member slices one after another, and the team never runs.
  const std::size_t n = 700;
  const auto g = graph::random_gnp_connected(n, 10.0 / static_cast<double>(n), 7);
  auto schedule = random_schedule(n, 12, 9);
  add_short_rounds(schedule, n, 10);
  const replay_log ref = replay_schedule(g, kLossy, 1, schedule);
  network net(g, kLossy);
  net.set_min_parallel_volume(0);  // or the small graph gets no team
  net.enable_intra_trial(3);
  ASSERT_EQ(net.intra_trial_threads(), 3u);
  net.set_min_parallel_volume(std::numeric_limits<std::size_t>::max());
  const std::int64_t parallel =
      network::process_shard_totals().parallel_rounds;
  replay_log got;
  step_schedule(net, schedule, got.rx, [](std::size_t) {});
  got.erasures = net.stats().erasures;
  EXPECT_EQ(ref, got);
  EXPECT_EQ(network::process_shard_totals().parallel_rounds, parallel);
}

TEST(ShardedStep, LiveResizeReslicesMidRun) {
  // One network resized between rounds, 1 -> 3 -> 2 -> 1: every resize
  // rebuilds the member slices from the graph, and the run must not notice.
  const std::size_t n = 700;
  const auto g = graph::random_gnp_connected(n, 10.0 / static_cast<double>(n), 7);
  auto schedule = random_schedule(n, 24, 77);
  add_short_rounds(schedule, n, 78);
  const replay_log ref = replay_schedule(g, kLossy, 1, schedule);
  network net(g, kLossy);
  net.set_min_parallel_volume(0);
  replay_log got;
  step_schedule(net, schedule, got.rx, [&](std::size_t r) {
    if (r == 6) net.enable_intra_trial(3);
    if (r == 12) net.enable_intra_trial(2);
    if (r == 18) net.enable_intra_trial(1);
    EXPECT_EQ(net.intra_trial_threads(), r < 6    ? 1u
                                         : r < 12 ? 3u
                                         : r < 18 ? 2u
                                                  : 1u);
  });
  got.erasures = net.stats().erasures;
  EXPECT_EQ(ref, got);
}

TEST(ShardedStep, AutoModeGrowsTheTeamMidRun) {
  // Auto mode with every worker slot taken at construction: the network
  // starts serial, and once slots come back between rounds its next budget
  // poll (every 64 stepped rounds) grows the team and re-slices.
  const std::size_t n = 700;
  const auto g = graph::random_gnp_connected(n, 10.0 / static_cast<double>(n), 7);
  const schedule_t schedule = random_schedule(n, 80, 31);
  const replay_log ref = replay_schedule(g, kLossy, 1, schedule);
  const intra_trial_policy saved = get_intra_trial_policy();
  intra_trial_policy pol;
  pol.threads = 0;
  pol.auto_threshold = 100;
  pol.min_parallel_volume = 0;
  set_intra_trial_policy(pol);
  set_worker_budget(4);
  ASSERT_EQ(borrow_workers(4), 4u);  // the trial pool holds every slot
  replay_log got;
  {
    network net(g, kLossy);
    EXPECT_EQ(net.intra_trial_threads(), 1u);
    step_schedule(net, schedule, got.rx, [&](std::size_t r) {
      if (r == 1) return_workers(2);  // two scenario workers finish
      if (r == 70) {
        EXPECT_EQ(net.intra_trial_threads(), 3u);
      }
    });
    got.erasures = net.stats().erasures;
  }  // returns the two borrowed slots
  return_workers(2);
  EXPECT_EQ(borrow_workers(4), 4u);  // every slot is free again
  return_workers(4);
  EXPECT_EQ(ref, got);
  set_intra_trial_policy(saved);
  set_worker_budget(0);
}

TEST(ShardedStep, WorkerBudgetBorrowAndReturn) {
  set_worker_budget(4);
  EXPECT_EQ(worker_budget(), 4u);
  EXPECT_EQ(borrow_workers(3), 3u);
  EXPECT_EQ(borrow_workers(3), 1u);  // only one slot left
  EXPECT_EQ(borrow_workers(1), 0u);  // exhausted
  return_workers(2);
  EXPECT_EQ(borrow_workers(5), 2u);
  return_workers(4);
  set_worker_budget(0);  // back to the hardware default
  EXPECT_GE(worker_budget(), 1u);
}

TEST(CompletionTracker, Basics) {
  completion_tracker t(3);
  EXPECT_FALSE(t.all_done());
  t.mark(0);
  t.mark(0);  // idempotent
  t.exclude(1);
  EXPECT_EQ(t.remaining(), 1u);
  t.mark(2);
  EXPECT_TRUE(t.all_done());
  t.observe_round(17);
  t.observe_round(20);
  EXPECT_EQ(t.first_complete_round(), 17);
}

}  // namespace
}  // namespace rn::radio
