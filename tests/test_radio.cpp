#include <gtest/gtest.h>

#include <initializer_list>
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
  net.enable_intra_trial(2);
  EXPECT_EQ(net.intra_trial_threads(), 2u);
  // Below the volume floor the team idles and the serial walk runs — the
  // round must still resolve normally.
  run_round(net, {{1, beacon(1)}});
  EXPECT_EQ(net.stats().deliveries, 1);
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

// Contract under test: the vectorized row-walk kernels (AVX2 / AVX-512)
// produce the exact reception sequence of the scalar walk — same
// listeners, same observations, same senders, same order, same erasure
// draws — on every graph and at every intra-trial team size. The active
// kernel is process-global state, so these tests record a scalar
// reference log and replay the identical schedule under each detected
// level on a fresh network.

/// Restores the process-global kernel level on scope exit.
struct simd_level_guard {
  explicit simd_level_guard(simd_level l) : prev_(active_simd_level()) {
    set_simd_level(l);
  }
  ~simd_level_guard() { set_simd_level(prev_); }
  simd_level prev_;
};

/// Every vector level this machine can actually run (empty on pre-AVX2
/// hardware or RN_DISABLE_SIMD builds — the tests then pass vacuously,
/// which is exactly the scalar-fallback contract).
std::vector<simd_level> vector_levels() {
  std::vector<simd_level> out;
  for (simd_level l : {simd_level::avx2, simd_level::avx512})
    if (l <= detected_simd_level()) out.push_back(l);
  return out;
}

using rx_log = std::vector<std::tuple<node_id, observation, node_id>>;

/// Replays a fixed multi-round transmit schedule on a fresh network under
/// the given kernel level and team size; returns the full reception log.
rx_log replay_schedule(const graph::graph& g, const model& m, simd_level lvl,
                       unsigned team,
                       const std::vector<std::vector<node_id>>& schedule) {
  simd_level_guard guard(lvl);
  network net(g, m);
  if (team > 1) {
    net.set_min_parallel_volume(0);
    net.enable_intra_trial(team);
  }
  std::vector<packet> beacons;
  beacons.reserve(g.node_count());
  for (node_id v = 0; v < g.node_count(); ++v)
    beacons.push_back(packet::make_beacon(v));
  rx_log log;
  round_buffer txs;
  for (const auto& round : schedule) {
    txs.clear();
    for (node_id v : round) txs.add(v, beacons[v]);
    net.step(txs, [&](const reception& rx) {
      log.emplace_back(rx.listener, rx.what, rx.from);
    });
  }
  return log;
}

/// Random schedule sweeping densities from ~1/2 to ~1/2^6 active nodes.
std::vector<std::vector<node_id>> random_schedule(std::size_t n, int rounds,
                                                  std::uint64_t seed) {
  rng r(seed);
  std::vector<std::vector<node_id>> schedule(rounds);
  for (int round = 0; round < rounds; ++round) {
    const int e = 1 + round % 6;
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(e)) schedule[round].push_back(v);
  }
  return schedule;
}

TEST(SimdStep, MatchesScalarOnRandomRounds) {
  const std::size_t n = 700;
  const auto g = graph::random_gnp_connected(n, 10.0 / static_cast<double>(n), 7);
  const model m{.collision_detection = true};
  const auto schedule = random_schedule(n, 40, 123);
  const rx_log ref = replay_schedule(g, m, simd_level::scalar, 1, schedule);
  ASSERT_FALSE(ref.empty());
  for (simd_level lvl : vector_levels()) {
    SCOPED_TRACE(to_string(lvl));
    EXPECT_EQ(ref, replay_schedule(g, m, lvl, 1, schedule));
  }
}

TEST(SimdStep, BlockBoundaryListenersAndScalarTails) {
  // Star-of-stars with 59-leaf rows: each transmitter row is seven full
  // 8-lane batches plus a ragged tail, and the hubs straddle the sharded
  // walk's block boundaries — covering the batch loop, the scalar tail,
  // and the owner-routed first-touch append in one graph.
  graph::graph::builder b(600);
  for (node_id hub = 0; hub < 600; hub += 60)
    for (node_id leaf = 1; leaf < 60; ++leaf) b.add_edge(hub, hub + leaf);
  for (node_id hub = 0; hub < 540; hub += 60) b.add_edge(hub, hub + 60);
  const auto g = std::move(b).build();
  const model m{.collision_detection = true};

  std::vector<std::vector<node_id>> schedule(2);
  for (node_id v = 0; v < 600; ++v)  // all leaves: hubs hear collisions
    if (v % 60 != 0) schedule[0].push_back(v);
  for (node_id hub = 0; hub < 600; hub += 60)  // one leaf per star: clean
    schedule[1].push_back(hub + 7);

  const rx_log ref = replay_schedule(g, m, simd_level::scalar, 1, schedule);
  for (simd_level lvl : vector_levels()) {
    SCOPED_TRACE(to_string(lvl));
    EXPECT_EQ(ref, replay_schedule(g, m, lvl, 1, schedule));
  }
}

TEST(SimdStep, ErasureDrawsAreKernelInvariant) {
  // Erasure draws happen at dispatch, which consumes the touch lists the
  // kernels build — identical first-touch order is what keeps the lossy
  // channel byte-identical, so test it directly at erasure_prob > 0.
  const std::size_t n = 400;
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 3);
  const model m{.collision_detection = false,
                .erasure_prob = 0.4,
                .erasure_seed = 99};
  const auto schedule = random_schedule(n, 30, 5);
  const rx_log ref = replay_schedule(g, m, simd_level::scalar, 1, schedule);
  ASSERT_FALSE(ref.empty());
  for (simd_level lvl : vector_levels()) {
    SCOPED_TRACE(to_string(lvl));
    EXPECT_EQ(ref, replay_schedule(g, m, lvl, 1, schedule));
  }
}

TEST(SimdStep, ComposesWithShardedTeams) {
  // Kernel level x team size cross-product: the sharded walk calls the
  // same kernels through the owner-routed entry point, so SIMD-on-sharded
  // must equal scalar-serial too.
  const std::size_t n = 700;
  const auto g = graph::random_gnp_connected(n, 10.0 / static_cast<double>(n), 7);
  const model m{.collision_detection = true};
  const auto schedule = random_schedule(n, 20, 42);
  const rx_log ref = replay_schedule(g, m, simd_level::scalar, 1, schedule);
  for (simd_level lvl : vector_levels()) {
    for (unsigned team : {2u, 4u}) {
      SCOPED_TRACE(std::string(to_string(lvl)) + " x team " +
                   std::to_string(team));
      EXPECT_EQ(ref, replay_schedule(g, m, lvl, team, schedule));
    }
  }
}

TEST(SimdStep, LevelApiClampsAndReports) {
  const simd_level prev = active_simd_level();
  set_simd_level(simd_level::avx512);  // clamped to what the CPU has
  EXPECT_LE(active_simd_level(), detected_simd_level());
  set_simd_level(simd_level::scalar);  // scalar is always available
  EXPECT_EQ(active_simd_level(), simd_level::scalar);
  EXPECT_STREQ(to_string(simd_level::scalar), "scalar");
  EXPECT_STREQ(to_string(simd_level::avx2), "avx2");
  EXPECT_STREQ(to_string(simd_level::avx512), "avx512");
  set_simd_level(prev);
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
