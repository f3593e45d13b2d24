// E10 — scale sweep: n up to 10^7 across three graph families (layered,
// unit-disk, power-law), all declared through the topology registry.
//
// Claim context: Theorem 1.1's O(D + polylog n) bounds are family-agnostic;
// the related broadcast literature (Czumaj-Davies arXiv:1805.04842,
// Andriambolamalala-Ravelomanana arXiv:1701.01587) only separates algorithms
// on specific shapes — hub-dominated power-law graphs (tiny D, huge
// contention) vs geometric unit-disk graphs (large D, local contention).
// The Decay baseline rides its batched coin calendar (baseline/decay.h), so
// it now scales with the transmitter count instead of paying a coin flip per
// informed node per round — the column runs through n = 10^5, and the
// layered family carries a 10^6 point (per-trial memory is the binding
// constraint there, tracked via the timing sidecar's peak_rss_kb).
// Slow-labeled: excluded from `--experiment all`; run with `-e e10`.
#include <string>

#include "core/params.h"
#include "experiments/experiments.h"
#include "sim/experiment.h"

namespace rn::bench {

namespace {

sim::scenario scale_scenario(const char* family, std::size_t n,
                             graph::topology_spec spec, bool with_decay) {
  sim::scenario sc;
  sc.label = std::string(family) + "/n=" + std::to_string(n);
  sc.params = {{"n", static_cast<double>(n)}};
  sc.topology = std::move(spec);
  sc.options.prm = core::params::fast();
  sc.probes = {{"gst-known", "gst_known"}};
  if (with_decay) sc.probes.push_back({"decay", "decay"});
  return sc;
}

}  // namespace

void register_e10(sim::registry& reg) {
  sim::experiment e;
  e.id = "e10";
  e.title = "scale sweep: layered / unit-disk / power-law, n up to 1e7";
  e.claim =
      "GST broadcast stays D-dominated at 10^4..10^7 nodes on every family";
  e.profile = "fast";
  e.default_trials = 2;
  e.slow = true;
  e.metric_columns = {"gst_known", "decay"};
  e.notes =
      "(layered: D fixed at 50, width carries n; unit-disk: D ~ 1/radius; "
      "power-law: D ~ log n with heavy hub contention. decay runs on the "
      "batched coin calendar — per-round cost tracks transmitters, not "
      "informed nodes — so the column extends through n = 10^7 on the "
      "layered family. The 10^6/10^7 points shard their row walks across "
      "the intra-trial backend when worker capacity allows; results are "
      "byte-identical either way.)";
  e.make_scenarios = [] {
    std::vector<sim::scenario> out;
    out.push_back(scale_scenario(
        "layered", 10001,
        {"layered", {{"depth", 50}, {"width", 200}, {"edge_prob", 0.1}}},
        true));
    out.push_back(scale_scenario(
        "layered", 100001,
        {"layered", {{"depth", 50}, {"width", 2000}, {"edge_prob", 0.01}}},
        true));
    out.push_back(scale_scenario(
        "unit_disk", 10000,
        {"unit_disk", {{"n", 10000}, {"radius", 0.03}}}, true));
    out.push_back(scale_scenario(
        "unit_disk", 100000,
        {"unit_disk", {{"n", 100000}, {"radius", 0.011}}}, true));
    out.push_back(scale_scenario(
        "power_law", 10000,
        {"power_law", {{"n", 10000}, {"edges_per_node", 2}}}, true));
    out.push_back(scale_scenario(
        "power_law", 100000,
        {"power_law", {{"n", 100000}, {"edges_per_node", 2}}}, true));
    // The 10^6 point: diameter-exact layered graph, mean degree ~40 as at
    // 10^5. Runs single-threaded within 8 GB RSS (see peak_rss_kb in the
    // timing sidecar).
    out.push_back(scale_scenario(
        "layered", 1000001,
        {"layered", {{"depth", 50}, {"width", 20000}, {"edge_prob", 0.001}}},
        true));
    // The 10^7 point: same shape, mean degree ~40, ~2x10^8 undirected
    // edges. One trial is big enough that the intra-trial sharded walk is
    // the parallelism that matters (the trial pool is idle with this few
    // units); peak RSS lands around 5 GB — see README and the sidecar.
    out.push_back(scale_scenario(
        "layered", 10000001,
        {"layered",
         {{"depth", 50}, {"width", 200000}, {"edge_prob", 0.0001}}},
        true));
    return out;
  };
  reg.add(std::move(e));

  // The 10^8 frontier point rides its own id so `-e e10` keeps fitting the
  // 8 GB class of machine: one trial's adjacency alone is ~17 GB, which is
  // exactly what the distributed backend exists for. Run it as
  //   rn_dist --ranks 4 -e e10x --trials 1 --timing t.json
  // — each rank then holds only its ~4.3 GB partitioned CSR slice (filled
  // from the rows the coordinator ships out of its own graph, in frames of
  // at most 1 MiB, never materializing the full graph in the worker) and
  // the v6 sidecar reports the per-rank peaks. Results are
  // byte-identical to a single-process run of the same seed, which a 128 GB
  // coordinator-only box can cross-check with bench_suite.
  sim::experiment xl;
  xl.id = "e10x";
  xl.title = "scale frontier: layered n = 1e8 (distributed ranks)";
  xl.claim =
      "GST broadcast stays D-dominated at 10^8 nodes; one trial exceeds a "
      "single address space's comfort and shards across worker ranks";
  xl.profile = "fast";
  xl.default_trials = 1;
  xl.slow = true;
  xl.metric_columns = {"gst_known"};
  xl.notes =
      "(layered: D = 50, width 2e6, mean degree ~42, ~2.1e9 undirected "
      "edges — the CSR sits just under the 32-bit offset ceiling. gst-known "
      "only: the Decay column's round count is unremarkable at this scale "
      "and roughly doubles the wall-clock. Each rank holds only its "
      "partitioned slice, ~4.3 GB at 4 ranks, filled from the rows the "
      "coordinator ships; see README \"Distributed mode\".)";
  xl.make_scenarios = [] {
    std::vector<sim::scenario> out;
    out.push_back(scale_scenario(
        "layered", 100000001,
        {"layered",
         {{"depth", 50}, {"width", 2000000}, {"edge_prob", 0.00001}}},
        false));
    return out;
  };
  reg.add(std::move(xl));
}

}  // namespace rn::bench
