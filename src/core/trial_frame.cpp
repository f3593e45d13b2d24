#include "core/trial_frame.h"

#include "graph/bfs.h"

namespace rn::core {

level_t resolve_d_hat(const graph::graph& g, node_id source, level_t d_hat) {
  return d_hat > 0 ? d_hat : graph::bfs(g, source).max_level;
}

std::vector<rng> node_coins(std::size_t n, std::uint64_t seed) {
  std::vector<rng> coins;
  coins.reserve(n);
  for (node_id v = 0; v < n; ++v) coins.push_back(rng::for_stream(seed, v));
  return coins;
}

trial_frame::trial_frame(const graph::graph& g, radio::model m,
                         bool fast_forward)
    : net_(g, m), sink_(net_, fast_forward), tracker_(g.node_count()) {}

radio::broadcast_result trial_frame::finish(round_t setup_rounds) {
  start();
  sink_.flush();
  const radio::network_stats& s = net_.stats();
  radio::broadcast_result res;
  res.completed = tracker_.all_done();
  res.rounds_to_complete = tracker_.first_complete_round() < 0
                               ? -1
                               : setup_rounds + tracker_.first_complete_round();
  res.rounds_executed = setup_rounds + s.rounds;
  res.transmissions = s.transmissions;
  res.deliveries = s.deliveries;
  res.collisions_observed = s.collisions_observed;
  res.energy = net_.energy();
  return res;
}

}  // namespace rn::core
