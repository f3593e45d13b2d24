#include "core/bfs_protocols.h"

#include "common/check.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/trial_frame.h"
#include "radio/network.h"

namespace rn::core {

std::vector<level_t> collision_wave(trial_frame& f, node_id source,
                                    level_t rounds) {
  std::vector<level_t> level(f.node_count(), no_level);
  level[source] = 0;
  std::vector<node_id> wave{source};  // nodes transmitting from now on
  std::vector<node_id> joined;
  radio::round_buffer txs;
  for (level_t r = 1; r <= rounds; ++r) {
    txs.clear();
    for (node_id v : wave)
      txs.add_owned(v, radio::packet::make_beacon(v));
    joined.clear();
    f.commit(txs, [&](const radio::reception& rx) {
      // Message or collision both mean "the wave arrived".
      if (level[rx.listener] == no_level) {
        level[rx.listener] = r;
        joined.push_back(rx.listener);
      }
    });
    wave.insert(wave.end(), joined.begin(), joined.end());
  }
  return level;
}

layering_result run_collision_wave_bfs(const graph::graph& g, node_id source,
                                       level_t d_hat) {
  RN_REQUIRE(source < g.node_count(), "source out of range");
  RN_REQUIRE(d_hat >= 0, "d_hat must be non-negative");

  trial_frame frame(g, {.collision_detection = true}, /*fast_forward=*/false);
  layering_result out;
  out.level = collision_wave(frame, source, d_hat);
  out.rounds = frame.stats().rounds;
  out.transmissions = frame.stats().transmissions;
  return out;
}

layering_result run_decay_epoch_bfs(const graph::graph& g, node_id source,
                                    level_t d_hat, std::size_t n_hat,
                                    const params& prm, std::uint64_t seed,
                                    bool fast_forward) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source < n, "source out of range");
  const std::size_t nh = resolve_n_hat(n_hat, n);
  const int L = log_range(nh);
  const int phases = prm.decay_phases(nh);

  trial_frame frame(g, {.collision_detection = false}, fast_forward);
  layering_result out;
  out.level.assign(n, no_level);
  out.level[source] = 0;

  std::vector<rng> node_rng = node_coins(n, seed);

  std::vector<node_id> informed{source};
  std::vector<node_id> fresh;
  radio::round_buffer txs;
  for (level_t epoch = 1; epoch <= d_hat; ++epoch) {
    fresh.clear();
    for (int ph = 0; ph < phases; ++ph) {
      for (int e = 0; e <= L; ++e) {
        txs.clear();
        for (node_id v : informed) {
          if (node_rng[v].with_probability_pow2(e))
            txs.add_owned(v, radio::packet::make_beacon(v));
        }
        frame.commit(txs, [&](const radio::reception& rx) {
          if (rx.what == radio::observation::message &&
              out.level[rx.listener] == no_level) {
            out.level[rx.listener] = epoch;
            fresh.push_back(rx.listener);
          }
        });
      }
    }
    // Nodes first informed during this epoch relay from the next epoch on.
    informed.insert(informed.end(), fresh.begin(), fresh.end());
  }
  out.rounds = frame.stats().rounds;
  out.transmissions = frame.stats().transmissions;
  return out;
}

}  // namespace rn::core
