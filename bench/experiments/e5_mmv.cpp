// E5 — multi-message viability (Definition 3.1) under noise injection.
//
// Claims: the leveled Decay schedule (Lemma 3.2) and the paper's new
// virtual-distance-keyed GST schedule (Lemma 3.3) complete even when every
// prompted node without the message jams; the classic level-keyed GST
// schedule of [7]/[19] — which the paper argues is *not* MMV — degrades.
#include <string>

#include "baseline/decay.h"
#include "core/gst_centralized.h"
#include "core/single_broadcast.h"
#include "experiments/experiments.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "sim/experiment.h"

namespace rn::bench {

void register_e5(sim::registry& reg) {
  sim::experiment e;
  e.id = "e5";
  e.title = "broadcast under MMV noise (uninformed prompted nodes jam)";
  e.claim =
      "Lemmas 3.2/3.3: vdist-keyed schedules stay fast; classic level-keyed "
      "schedule is not MMV";
  e.profile = "paper";
  e.default_trials = 10;
  e.metric_columns = {"completed", "rounds"};
  e.notes =
      "(the classic schedule may still complete within its budget; the MMV "
      "claim is about *guaranteed* progress — compare round inflation under "
      "+noise. rounds averages completed runs only.)";
  e.make_scenarios = [] {
    struct variant {
      const char* name;
      bool noise;
      bool classic;
      bool leveled_decay;
    };
    const variant variants[] = {
        {"leveled_decay", false, false, true},
        {"leveled_decay+noise", true, false, true},
        {"mmv_gst", false, false, false},
        {"mmv_gst+noise", true, false, false},
        {"classic_gst", false, true, false},
        {"classic_gst+noise", true, true, false},
    };
    std::vector<sim::scenario> out;
    for (const auto& v : variants) {
      sim::scenario sc;
      sc.label = v.name;
      sc.run = [v](std::size_t, rng& r) {
        graph::layered_options lo;
        lo.depth = 12;
        lo.width = 5;
        lo.edge_prob = 0.4;
        lo.intra_prob = 0.2;
        lo.seed = r();
        const auto g = graph::random_layered(lo);
        core::options opt;
        opt.seed = r();
        opt.fast_forward = sim::use_fast_forward();
        radio::broadcast_result res;
        if (v.leveled_decay) {
          res = baseline::run_leveled_decay_broadcast(
              g, 0, graph::bfs(g, 0).level, opt, v.noise);
        } else {
          const auto t = core::build_gst_centralized(g, 0);
          res = core::run_gst_single_broadcast(g, t, core::derive(g, t), {0},
                                               opt, v.noise, v.classic);
        }
        return sim::of_broadcast_result(res);
      };
      out.push_back(std::move(sc));
    }
    return out;
  };
  reg.add(std::move(e));
}

}  // namespace rn::bench
