// City-wide emergency alert over an ad-hoc mesh.
//
// City blocks are dense radio cells (cliques) chained along a corridor —
// a worst case for contention (everyone in a block hears everyone) and for
// diameter (the corridor is long). Shows how collision detection closes the
// gap between unknown- and known-topology dissemination, the message of
// Theorems 1.1/1.3.
//
//   ./examples/emergency_alert
#include <cstdio>

#include "core/api.h"
#include "core/single_broadcast.h"
#include "graph/bfs.h"
#include "graph/generators.h"

int main() {
  using namespace rn;

  const auto g = graph::clique_chain(/*cliques=*/12, /*clique_size=*/8);
  std::printf("city mesh: %zu radios in 12 blocks, diameter %d\n\n",
              g.node_count(), graph::diameter(g));

  core::options opt;
  opt.seed = 9;
  opt.prm = core::params::fast();

  std::printf("dissemination (alert from node 0):\n");
  for (const char* protocol : {"decay", "tuned-decay", "gst-known"}) {
    const auto res = core::run_broadcast(g, protocol, {/*source=*/0}, opt);
    std::printf("  %-12s rounds=%lld  collisions observed=%lld\n", protocol,
                static_cast<long long>(res.base.rounds_to_complete),
                static_cast<long long>(res.base.collisions_observed));
  }

  // With collision detection, the unknown-topology pipeline prepares the
  // same GST infrastructure distributedly; once built, every further alert
  // reuses it at known-topology speed.
  const auto setup = core::prepare_unknown_topology(g, 0, opt);
  std::printf(
      "\none-time distributed setup with CD (Theorem 1.1 preprocessing):\n"
      "  wave=%lld rounds, construction=%lld, labeling=%lld  "
      "(rings=%zu, fallbacks=%d)\n",
      static_cast<long long>(setup.wave_rounds),
      static_cast<long long>(setup.construction_rounds),
      static_cast<long long>(setup.labeling_rounds), setup.rings.rings.size(),
      setup.fallback_finalizations + setup.fallback_adoptions);

  const auto res = core::run_broadcast(g, "gst-unknown-cd", {0}, opt);
  std::printf("  full Theorem 1.1 run: completed=%s, total rounds=%lld\n",
              res.base.completed ? "yes" : "NO",
              static_cast<long long>(res.base.rounds_executed));
  std::printf(
      "\ntakeaway: collision detection replaces topology knowledge — the\n"
      "per-alert cost matches the known-topology schedule after setup.\n");
  return 0;
}
