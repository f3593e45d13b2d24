// Pins the `channel-v1` contract (core/params.h): the block-major reception
// dispatch order and, through it, the per-reception erasure-draw mapping.
//
// The erasure channel consumes one Bernoulli draw per single-transmitter
// reception, in dispatch order. Dispatch order is: blocks of the fixed
// 32-way listener partition in ascending order, first-touch order within a
// block. Any change to the partition, the touch order, or the draw
// discipline re-maps which receptions get erased and silently shifts every
// erasure-channel result — so this file freezes the observable outcomes of
// a fixed workload as golden values. If a change here is intentional, it is
// a new channel contract: bump kChannelContract and re-pin.
//
// The same digest is also checked at forced team sizes 2 and 4, re-asserting
// the thread-count invariance that makes the contract well-defined.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/params.h"
#include "dist/session.h"
#include "graph/topology.h"
#include "radio/network.h"
#include "radio/packet.h"

namespace rn {
namespace {

/// FNV-1a over the reception/erasure trace.
struct digest {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

struct trace {
  std::uint64_t digest_value = 0;
  std::int64_t deliveries = 0;
  std::int64_t erasures = 0;
  std::int64_t collisions = 0;
};

/// Runs the fixed workload: 24 rounds on layered:depth=20,width=12 (seed 7),
/// erasure_prob 0.35, transmitters chosen by a fixed modular pattern so each
/// round mixes single-sender receptions (erasure draws) with collisions.
/// The fixed workload's topology: layered:depth=20,width=12 at seed 7.
graph::topology_spec workload_spec() {
  graph::topology_spec spec =
      graph::parse_topology_spec("layered:depth=20,width=12,edge_prob=0.6");
  spec.seed = 7;
  return spec;
}

/// Steps the 24 fixed rounds on `net` and returns the trace.
trace run_rounds(radio::network& net) {
  const radio::packet beacon = radio::packet::make_beacon(0);
  digest d;
  radio::round_buffer txs;
  const std::size_t n = net.node_count();
  for (int round = 0; round < 24; ++round) {
    txs.clear();
    // Round r: nodes with id % (3 + r % 5) == r % 3 transmit — between ~1/7
    // and ~1/3 of the nodes, enough for both deliveries and collisions.
    const std::size_t mod = 3 + static_cast<std::size_t>(round % 5);
    const std::size_t rem = static_cast<std::size_t>(round % 3);
    for (std::size_t v = 0; v < n; ++v)
      if (v % mod == rem) txs.add(static_cast<node_id>(v), beacon);
    net.step(txs, [&](const radio::reception& rx) {
      d.mix(rx.listener);
      d.mix(static_cast<std::uint64_t>(rx.what));
      d.mix(rx.what == radio::observation::message ? rx.from : no_node);
    });
  }
  return {d.h, net.stats().deliveries, net.stats().erasures,
          net.stats().collisions_observed};
}

radio::model workload_model() {
  radio::model m;
  m.collision_detection = true;
  m.erasure_prob = 0.35;
  m.erasure_seed = 99;
  return m;
}

trace run_workload(unsigned team_threads) {
  const graph::graph g = graph::build_topology(workload_spec());
  radio::network net(g, workload_model());
  // Shard every round regardless of volume; set first, or the small graph
  // gets no team.
  net.set_min_parallel_volume(0);
  if (team_threads >= 2) net.enable_intra_trial(team_threads);
  EXPECT_EQ(net.intra_trial_threads(), team_threads);
  return run_rounds(net);
}

/// Same workload on a fork-only distributed fleet: the session arms the
/// remote-walk hook for `g`, so the network delegates every stepped round's
/// reception walk to the rank workers.
trace run_workload_dist(unsigned ranks, unsigned intra_threads) {
  dist::session_options so;
  so.ranks = ranks;
  so.intra_trial_threads = intra_threads;
  dist::session s(so);

  const graph::topology_spec spec = workload_spec();
  const graph::graph g = graph::build_topology(spec);
  s.trial_begin(spec, g);
  trace t;
  {
    radio::network net(g, workload_model());
    t = run_rounds(net);
  }  // the network releases its adoption before the trial tears down
  s.trial_end(g);
  return t;
}

TEST(ChannelContract, NameAndBlockCountArePinned) {
  EXPECT_EQ(core::kChannelContract, "channel-v1");
  EXPECT_EQ(core::kChannelContractBlocks, 32u);
}

// Golden values for the fixed workload above. These freeze channel-v1: the
// listener partition, the first-touch dispatch order, and the one-draw-per-
// reception erasure mapping. Do not update casually — a mismatch means the
// erasure-draw mapping changed and every erasure-channel experiment moved.
TEST(ChannelContract, ErasureOutcomesArePinned) {
  const trace t = run_workload(1);
  EXPECT_EQ(t.digest_value, 14735693317489780001ULL) << "trace digest";
  EXPECT_EQ(t.deliveries, 305);
  EXPECT_EQ(t.erasures, 181);
  EXPECT_EQ(t.collisions, 3918);
}

TEST(ChannelContract, TraceIsThreadCountInvariant) {
  const trace serial = run_workload(1);
  for (const unsigned threads : {2u, 4u}) {
    const trace sharded = run_workload(threads);
    EXPECT_EQ(sharded.digest_value, serial.digest_value) << threads;
    EXPECT_EQ(sharded.deliveries, serial.deliveries) << threads;
    EXPECT_EQ(sharded.erasures, serial.erasures) << threads;
    EXPECT_EQ(sharded.collisions, serial.collisions) << threads;
  }
}

// The sharded walk must reproduce the pinned goldens — not merely match
// whatever the serial walk currently does — at every team size: each member
// preserves first-touch dispatch order and therefore the erasure-draw
// mapping that channel-v1 froze.
TEST(ChannelContract, GoldensHoldAtEveryTeamSize) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    const trace t = run_workload(threads);
    EXPECT_EQ(t.digest_value, 14735693317489780001ULL) << "team " << threads;
    EXPECT_EQ(t.deliveries, 305) << threads;
    EXPECT_EQ(t.erasures, 181) << threads;
    EXPECT_EQ(t.collisions, 3918) << threads;
  }
}

// The distributed backend must reproduce the pinned goldens at every rank
// count (including non-dividing splits of the 32 blocks) and worker thread
// count. Workers rebuild the topology from the spec and walk only their
// partitioned CSR slices; matching the frozen digest means the rank
// partition preserves the block-major dispatch order and hence the
// erasure-draw mapping — the contract-level statement of the backend's
// byte-identity claim.
TEST(ChannelContract, GoldensHoldUnderDistributedBackend) {
  for (const unsigned ranks : {1u, 2u, 4u}) {
    for (const unsigned intra : {1u, 2u}) {
      const trace t = run_workload_dist(ranks, intra);
      EXPECT_EQ(t.digest_value, 14735693317489780001ULL)
          << "ranks " << ranks << " x intra " << intra;
      EXPECT_EQ(t.deliveries, 305) << ranks;
      EXPECT_EQ(t.erasures, 181) << ranks;
      EXPECT_EQ(t.collisions, 3918) << ranks;
    }
  }
}

}  // namespace
}  // namespace rn
