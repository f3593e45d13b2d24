// The distributed-backend tests that take longer than a few seconds, kept
// out of the tier-1 test_dist: a rank fill long enough that a fifth of it
// is a round deadline clear of a loaded host's scheduling delays.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/params.h"
#include "dist/session.h"
#include "dist/wire.h"
#include "dist_helpers.h"
#include "graph/partitioned.h"
#include "graph/topology.h"
#include "sim/adhoc.h"
#include "sim/experiment.h"
#include "sim/json.h"

namespace rn::dist {
namespace {

using test_support::fast_recovery_options;
using test_support::run_dist;
using test_support::run_outcome;
using test_support::send_round;
using test_support::threaded_worker;

constexpr unsigned kBlocks = core::kChannelContractBlocks;

TEST(DistFaultMatrix, RankFillLongerThanTheRoundDeadlineIsNotAWedge) {
  // trial_begin returns once every rank has its frames; a rank then still
  // scatters the last of them and, on a team of two, copies its view into
  // member slices when its first round is due. The coordinator waits for
  // its setup_ready under the setup deadline, so a fill four times the
  // round deadline is latency, not a wedge. The deadline is a quarter of a
  // timed fill of rank 0's shipped rows, setup_stream to setup_ready
  // through a worker, and never under twice a timed round in which every
  // node transmits: no round walks more. Two ranks of this n = 800001 spec
  // fill in 220-300 ms on a 4-vCPU host, 85-120 ms of it after the last
  // frame is sent, and an every-node round takes 31-41 ms: a 60-80 ms
  // deadline.
  const char* topology = "layered:depth=50,width=16000,edge_prob=0.00124";
  constexpr unsigned ranks = 2;
  sim::adhoc_spec spec;
  spec.topology = topology;
  spec.protocols = "decay";
  const sim::experiment e = sim::make_adhoc_experiment(spec);
  sim::run_config rc;
  rc.trials = 1;
  rc.threads = 1;  // single-threaded driver: fork-only respawn is safe
  rc.seed = 11;

  session_options so = fast_recovery_options(ranks);
  so.intra_trial_threads = 2;
  double fill_ms = 0.0;
  double round_ms = 0.0;
  {
    graph::topology_spec ts = graph::parse_topology_spec(topology);
    ts.seed = rc.seed;  // the fill's cost depends on the shape, not the seed
    const graph::graph g = graph::build_topology(ts);
    const auto since = [](std::chrono::steady_clock::time_point t0) {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)  // rn-lint: allow(R1) sets the test's round deadline from rank timings (test-only timing)
          .count();
    };
    const auto t0 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) sets the test's round deadline from rank timings (test-only timing)
    threaded_worker w(g, graph::compute_block_plan(g, kBlocks), 0,
                      kBlocks / ranks, so.intra_trial_threads);
    fill_ms = since(t0);
    std::vector<node_id> all(g.node_count());
    std::iota(all.begin(), all.end(), node_id{0});
    std::vector<std::uint8_t> payload;
    for (int rep = 0; rep < 2; ++rep) {
      const auto t1 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) sets the test's round deadline from rank timings (test-only timing)
      send_round(w.ch, static_cast<std::uint32_t>(all.size()), all);
      ASSERT_EQ(w.ch.recv(payload), msg_type::round_results);
      round_ms = std::max(round_ms, since(t1));
    }
  }
  const std::string local_json =
      sim::to_json(e, sim::run_experiment(e, rc)).dump(2);

  so.policy.round_deadline_ms = unsigned(std::max(fill_ms / 4, 2 * round_ms));
  SCOPED_TRACE("rank fill " + std::to_string(fill_ms) +
               " ms, every-node round " + std::to_string(round_ms) +
               " ms, round deadline " +
               std::to_string(so.policy.round_deadline_ms) + " ms");
  const run_outcome got = run_dist(e, rc, so);
  EXPECT_EQ(got.json, local_json);
  EXPECT_EQ(got.totals.rank_restarts, 0u);
  EXPECT_EQ(got.totals.degraded_ranks, 0u);
}

}  // namespace
}  // namespace rn::dist
