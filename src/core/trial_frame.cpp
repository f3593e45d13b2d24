#include "core/trial_frame.h"

#include <algorithm>
#include <iterator>

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
    : net_(g, m), ff_(fast_forward), tracker_(g.node_count()) {}

radio::broadcast_result trial_frame::finish(round_t setup_rounds) {
  start();
  const radio::network_stats& s = stats();
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

std::shared_ptr<radio::packet_body> coded_packets::acquire() {
  if (free_.empty()) {
    // Reclaim every lent body that only this pool still references. Topping
    // the free list up to a quarter of the lent ones puts the next sweep at
    // least that many handouts away: amortized O(1) per body.
    const auto held = std::partition(
        lent_.begin(), lent_.end(),
        [](const auto& body) { return body.use_count() > 1; });
    std::move(held, lent_.end(), std::back_inserter(free_));
    lent_.erase(held, lent_.end());
    while (free_.size() <= lent_.size() / 4)
      free_.push_back(std::make_shared<radio::packet_body>());
  }
  lent_.push_back(std::move(free_.back()));
  free_.pop_back();
  return lent_.back();
}

}  // namespace rn::core
