// E9 — ring-width ablation for the Theorem 1.1 pipeline [DEV-6].
//
// The paper sets ring width D / log^4 n (one ring when D is small). The
// width trades per-ring GST construction cost (grows with width) against
// relay overhead (more rings = more Decay handoffs and more sequential
// per-ring broadcasts). This experiment sweeps the divisor on a deep graph.
#include <string>

#include "core/single_broadcast.h"
#include "experiments/experiments.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "sim/experiment.h"

namespace rn::bench {

void register_e9(sim::registry& reg) {
  sim::experiment e;
  e.id = "e9";
  e.title = "Theorem 1.1 ring-width ablation (layered, D = 24, n = 97)";
  e.claim = "wider rings: cheaper relay, costlier construction wavefront";
  e.profile = "fast";
  e.default_trials = 2;
  e.metric_columns = {"rings", "setup", "relay", "completed"};
  e.notes =
      "(setup shrinks as rings narrow — shorter construction wavefront per "
      "ring — while relay grows with the number of handoffs; the paper picks "
      "width D/log^4 n so both sides are O(D))";
  e.make_scenarios = [] {
    std::vector<sim::scenario> out;
    for (const double divisor : {0.0, 2.0, 4.0, 8.0}) {
      sim::scenario sc;
      sc.label = "divisor=" + std::to_string(static_cast<int>(divisor));
      sc.params = {{"ring_divisor", divisor}};
      sc.run = [divisor](std::size_t, rng& r) {
        graph::layered_options lo;
        lo.depth = 24;
        lo.width = 4;
        lo.edge_prob = 0.4;
        lo.seed = r();
        const auto g = graph::random_layered(lo);
        core::options opt;
        opt.seed = r();
        opt.prm = core::params::fast();
        opt.prm.ring_divisor = divisor;
        opt.fast_forward = sim::use_fast_forward();
        const auto res = core::run_unknown_cd_single_broadcast(g, 0, opt);
        round_t setup = 0, relay = 0;
        for (const auto& [name, rounds] : res.phase_rounds)
          (std::string(name) == "ring_relay" ? relay : setup) += rounds;
        const std::size_t rings =
            core::decompose_rings(graph::bfs(g, 0).level,
                                  core::ring_width_for(24, divisor))
                .rings.size();
        sim::metrics m;
        m.set("rings", static_cast<double>(rings));
        m.set("setup", static_cast<double>(setup));
        m.set("relay", static_cast<double>(relay));
        m.set("completed", res.completed ? 1.0 : 0.0);
        return m;
      };
      out.push_back(std::move(sc));
    }
    return out;
  };
  reg.add(std::move(e));
}

}  // namespace rn::bench
