// Centralized GST construction — our substitute for the O(n^2) algorithm of
// Gasieniec, Peleg and Xin [7] (the paper uses it as a black box in the known
// topology setting).
//
// Per level pair (l-1, l), ranks are processed from high to low. While some
// yet-unranked red node has >= 2 unassigned rank-i blue neighbors, it adopts
// them all and gets rank i+1 — the red with the most such neighbors first,
// smallest id on ties. Afterwards every unranked red has at most one
// unassigned rank-i neighbor, so the remaining blues can each pick any
// neighbor (preferring unranked ones, which then get rank i); a short
// exchange argument shows collision-freeness can never be violated at that
// point. The result always passes `validate_gst`.
//
// Cost: each red's count of unassigned neighbors is kept exact (counted once
// per rank, decremented as blues are adopted) and reds are picked from count
// buckets, each sorted once, so a rank costs O(the degrees of its blues and
// of the reds that adopt) plus the bucket sorts.
#pragma once

#include <vector>

#include "core/gst.h"
#include "graph/graph.h"

namespace rn::core {

/// Single-source GST over the whole (connected component of the) graph.
[[nodiscard]] gst build_gst_centralized(const graph::graph& g, node_id source);

/// Multi-root GST forest restricted to `mask` (ring construction). All roots
/// sit at level 0; `mask == nullptr` means all nodes.
[[nodiscard]] gst build_gst_centralized_multi(
    const graph::graph& g, const std::vector<node_id>& roots,
    const std::vector<char>* mask = nullptr);

}  // namespace rn::core
