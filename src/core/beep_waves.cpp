#include "core/beep_waves.h"

#include <vector>

#include "common/check.h"
#include "core/bfs_protocols.h"
#include "core/trial_frame.h"
#include "radio/network.h"

namespace rn::core {

diameter_estimate estimate_eccentricity_beep_waves(const graph::graph& g,
                                                   node_id source) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source < n, "source out of range");

  trial_frame frame(g, {.collision_detection = true}, /*fast_forward=*/false);
  radio::round_buffer txs;
  std::vector<node_id> joined;

  diameter_estimate out;
  for (level_t t = 1;; t *= 2) {
    // Outgoing wave: the collision wave for t rounds; a node's level is its
    // arrival time.
    const std::vector<level_t> arrival = collision_wave(frame, source, t);

    // One quiet separator round.
    frame.advance(1);

    // Echo window: frontier nodes (arrival exactly t) flood back for t+1
    // rounds; everyone that hears anything joins the echo.
    std::vector<char> echoing(n, 0);
    std::vector<node_id> echo_set;
    for (node_id v = 0; v < n; ++v) {
      if (arrival[v] == t) {
        echoing[v] = 1;
        echo_set.push_back(v);
      }
    }
    bool source_heard = false;
    for (level_t r = 0; r <= t; ++r) {
      txs.clear();
      for (node_id v : echo_set) txs.add_owned(v, radio::packet::make_beacon(v));
      joined.clear();
      frame.commit(txs, [&](const radio::reception& rx) {
        if (rx.listener == source) source_heard = true;
        if (!echoing[rx.listener]) {
          echoing[rx.listener] = 1;
          joined.push_back(rx.listener);
        }
      });
      echo_set.insert(echo_set.end(), joined.begin(), joined.end());
    }

    if (!source_heard) {
      // No node sits at distance exactly t, so ecc(source) < t; with the
      // previous (failed) estimate t/2 <= ecc this is a 2-approximation.
      out.estimate = t;
      out.rounds = frame.stats().rounds;
      return out;
    }
    RN_REQUIRE(t < static_cast<level_t>(4 * n + 4),
               "beep-wave estimation failed to terminate");
  }
}

}  // namespace rn::core
