// E4 — distributed GST construction cost (Theorem 2.1) and the pipelining
// ablation (section 2.2.4).
//
// Claims: construction rounds grow linearly in D; the pipelined schedule
// replaces the (depth x rank) slot product with a sum (asymptotically
// O(D log^4) vs O(D log^5)). With R rounds per assignment problem, the
// sequential schedule runs D*(L+1) slots of R rounds and the pipelined one
// 2D+L-1 slots of 3R, so the win factor is below 1 at small D and tends to
// (L+1)/6.
// Validity and [DEV-9] fallback counters are reported for every run.
#include <string>

#include "core/gst.h"
#include "core/gst_distributed.h"
#include "experiments/experiments.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "sim/experiment.h"

namespace rn::bench {

void register_e4(sim::registry& reg) {
  sim::experiment e;
  e.id = "e4";
  e.title = "distributed GST construction rounds vs D";
  e.claim =
      "Theorem 2.1: O(D log^4 n) pipelined vs O(D log^5 n) sequential; all "
      "outputs validated";
  e.profile = "fast";
  e.default_trials = 3;
  e.metric_columns = {"pipelined", "sequential", "ratio", "valid", "fallbacks"};
  e.notes =
      "(slot model, R rounds per assignment problem: sequential D*(L+1)*R, "
      "pipelined (2D+L-1)*3R, so ratio ~ D(L+1)/(3(2D+L-1)): below 1 at small "
      "D, tending to (L+1)/6; 0.75 at D=6 (L=5), 1.40 at D=48 (L=8); both "
      "columns scale linearly in D; valid is the fraction of runs whose "
      "forests pass the validator)";
  e.make_scenarios = [] {
    std::vector<sim::scenario> out;
    for (const int d : {6, 12, 24, 48}) {
      sim::scenario sc;
      sc.label = "D=" + std::to_string(d);
      sc.params = {{"D", static_cast<double>(d)},
                   {"n", static_cast<double>(1 + d * 3)}};
      sc.run = [d](std::size_t, rng& r) {
        graph::layered_options lo;
        lo.depth = static_cast<std::size_t>(d);
        lo.width = 3;
        lo.edge_prob = 0.4;
        lo.seed = r();
        const auto g = graph::random_layered(lo);
        core::options opt;
        opt.seed = r();
        opt.prm = core::params::fast();
        opt.fast_forward = sim::use_fast_forward();
        const auto p = core::build_gst_distributed_single(g, 0, opt);
        const auto s = core::build_gst_distributed_single(g, 0, opt,
                                                          /*pipelined=*/false);
        sim::metrics m;
        m.set("pipelined", static_cast<double>(p.rounds));
        m.set("sequential", static_cast<double>(s.rounds));
        m.set("ratio",
              static_cast<double>(s.rounds) / static_cast<double>(p.rounds));
        m.set("valid", core::validate_gst(g, p.forests[0]).empty() &&
                               core::validate_gst(g, s.forests[0]).empty()
                           ? 1.0
                           : 0.0);
        m.set("fallbacks",
              static_cast<double>(p.fallback_finalizations +
                                  p.fallback_adoptions +
                                  s.fallback_finalizations +
                                  s.fallback_adoptions));
        return m;
      };
      out.push_back(std::move(sc));
    }
    return out;
  };
  reg.add(std::move(e));
}

}  // namespace rn::bench
