// Helpers the distributed-backend tests share: a worker on its own thread
// over a bare channel, and a fork-only fleet run of a declarative
// experiment.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "dist/session.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "graph/graph.h"
#include "graph/partitioned.h"
#include "sim/experiment.h"
#include "sim/json.h"

namespace rn::dist::test_support {

/// worker_main on its own thread, set up with the rank's view of blocks
/// [first, last) of `g` by the coordinator's setup stream.
struct threaded_worker {
  channel ch;
  int status = -1;
  std::thread thread;

  threaded_worker(const graph::graph& g, const graph::block_plan& plan,
                  unsigned first, unsigned last, unsigned threads) {
    auto [coord, rank] = make_channel_pair();
    ch = std::move(coord);
    // worker_main owns the fd it is given; `rank` closes its own.
    const int fd = ::dup(rank.fd());
    thread = std::thread([this, fd] { status = worker_main(fd); });
    ch.set_deadline_ms(60'000);
    try {
      setup_stream setup(g, plan, first, last, threads);
      std::vector<std::uint32_t> scratch;
      while (setup.send_next(ch, scratch)) {
      }
      std::vector<std::uint8_t> payload;
      EXPECT_EQ(ch.recv(payload), msg_type::setup_ready);
    } catch (...) {
      join();  // no destructor runs for a constructor that throws
      throw;
    }
  }
  ~threaded_worker() {
    if (thread.joinable()) join();
  }
  int join() {
    ch.close();  // a worker still reading sees EOF
    thread.join();
    return status;
  }
};

/// A round frame as the session sends it: no fault, `count` transmitters
/// claimed, `ids` shipped.
inline void send_round(channel& ch, std::uint32_t count,
                       const std::vector<node_id>& ids) {
  const std::uint32_t head[3] = {0, 0, count};
  const wire_part frame[2] = {{head, sizeof(head)},
                              {ids.data(), ids.size() * 4}};
  ch.send(msg_type::round, frame);
}

struct run_outcome {
  std::string json;
  session_totals totals;
};

/// Runs the experiment through a fresh fleet and returns the results JSON
/// plus the session counters. rc must be effectively single-threaded: the
/// fork-only fleet respawns ranks mid-run, and forking a multithreaded
/// driver is not safe.
inline run_outcome run_dist(const sim::experiment& e,
                            const sim::run_config& rc, session_options so) {
  session s(std::move(so));
  s.install();
  const sim::experiment_result res = sim::run_experiment(e, rc);
  s.uninstall();
  return {sim::to_json(e, res).dump(2), s.totals()};
}

/// Fleet options with wedge detection and respawn backoff short enough for
/// the fault tests.
inline session_options fast_recovery_options(unsigned ranks) {
  session_options so;
  so.ranks = ranks;
  so.policy.round_deadline_ms = 500;  // wedge detection the tests can afford
  so.policy.backoff_base_ms = 1;
  so.policy.backoff_cap_ms = 4;
  return so;
}

}  // namespace rn::dist::test_support
