// Topology specs whose names are all valid but one value lies outside its
// generator's range, or whose values give a node count of exactly no_node
// (one node more than ids can number) — at least one per builtin kind.
// Validation must reject each without generating a graph
// (graph::check_topology, sim::make_adhoc_experiment, a service "run"
// request).
#pragma once

namespace rn::test {

inline constexpr const char* kOutOfRangeSpecs[] = {
    "path:n=0",
    "path:n=1e30",
    "cycle:n=2",
    "star:n=1",
    "complete:n=0",
    "grid:rows=0",
    "grid:rows=3,cols=0",
    "grid:rows=65535,cols=65537",
    "binary_tree:n=0",
    "caterpillar:spine=0",
    "caterpillar:legs=-1",
    "caterpillar:spine=65535,legs=65536",
    "layered:depth=0",
    "layered:width=0",
    "layered:depth=2,width=2147483647",
    "gnp:n=0",
    "unit_disk:radius=0",
    "unit_disk:n=0",
    "power_law:n=1",
    "power_law:edges_per_node=0",
    "clique_chain:cliques=0",
    "clique_chain:clique_size=0",
    "clique_chain:cliques=65535,clique_size=65537",
    "dumbbell:side=0",
    "dumbbell:bridge_len=1.5",
    "dumbbell:side=2147483647,bridge_len=1",
};

}  // namespace rn::test
