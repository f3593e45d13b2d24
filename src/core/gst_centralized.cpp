#include "core/gst_centralized.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/math.h"
#include "graph/bfs.h"

namespace rn::core {

gst build_gst_centralized(const graph::graph& g, node_id source) {
  return build_gst_centralized_multi(g, {source}, nullptr);
}

gst build_gst_centralized_multi(const graph::graph& g,
                                const std::vector<node_id>& roots,
                                const std::vector<char>* mask) {
  const std::size_t n = g.node_count();
  const auto b = graph::bfs_multi(g, roots, mask);

  gst t;
  t.roots = roots;
  t.member.assign(n, 0);
  t.level = b.level;
  t.parent.assign(n, no_node);
  t.rank.assign(n, no_rank);

  std::vector<std::vector<node_id>> by_level(
      static_cast<std::size_t>(b.max_level) + 1);
  std::size_t member_count = 0;
  for (node_id v = 0; v < n; ++v) {
    if (b.level[v] != no_level) {
      t.member[v] = 1;
      ++member_count;
      by_level[static_cast<std::size_t>(b.level[v])].push_back(v);
    }
  }
  if (member_count == 0) return t;
  const rank_t max_rank =
      static_cast<rank_t>(ceil_log2(member_count < 2 ? 2 : member_count)) + 1;

  std::vector<char> assigned(n, 0);
  // Scratch for the greedy adoption below, hoisted out of the level/rank
  // loops. `in_u` self-clears: every entry set for a u_set is zeroed by the
  // time steps 1+2 assigned all of U. `live` is zeroed over the candidates
  // after step 1.
  std::vector<char> in_u(n, 0);
  std::vector<node_id> u_set;
  // live[v] = |N(v) ∩ U| for every candidate red v (unranked, level l-1,
  // some neighbor in U), kept exact as U shrinks; 0 for every other node.
  std::vector<std::uint32_t> live(n, 0);
  std::vector<node_id> candidates;
  // buckets[c]: candidates filed under live count c >= 2.
  std::vector<std::vector<node_id>> buckets;

  // Process level pairs bottom-up; blues at the current level already carry
  // final ranks (set while they were reds one pair earlier, or rank 1 if
  // childless / deepest).
  for (level_t l = b.max_level; l >= 1; --l) {
    auto& blues = by_level[static_cast<std::size_t>(l)];
    for (node_id u : blues)
      if (t.rank[u] == no_rank) t.rank[u] = 1;  // childless -> leaf

    for (rank_t i = max_rank; i >= 1; --i) {
      // U = unassigned blues of rank i.
      u_set.clear();
      for (node_id u : blues)
        if (!assigned[u] && t.rank[u] == i) u_set.push_back(u);
      if (u_set.empty()) continue;
      for (node_id u : u_set) in_u[u] = 1;

      // Step 1: greedily rank reds that can adopt >= 2 rank-i blues, highest
      // live count first, smallest id on ties. Counts are taken while the
      // candidates are collected and only fall as blues are adopted, so
      // while c is the top bucket no red can join it: walking bucket c in id
      // order meets the reds still at count c in exactly that argmax order.
      // A red found holding a lower count is re-filed under it.
      candidates.clear();
      std::uint32_t top = 0;
      for (node_id u : u_set) {
        for (node_id v : g.neighbors(u)) {
          if (!t.member[v] || t.level[v] != l - 1 || t.rank[v] != no_rank)
            continue;
          if (live[v]++ == 0) candidates.push_back(v);
          top = std::max(top, live[v]);
        }
      }
      if (buckets.size() <= top) buckets.resize(top + 1);
      for (node_id v : candidates)
        if (live[v] >= 2) buckets[live[v]].push_back(v);
      for (std::uint32_t c = top; c >= 2; --c) {
        auto& bucket = buckets[c];
        std::sort(bucket.begin(), bucket.end());
        for (node_id v : bucket) {
          if (live[v] != c) {
            if (live[v] >= 2) buckets[live[v]].push_back(v);
            continue;
          }
          for (node_id w : g.neighbors(v)) {
            if (!in_u[w]) continue;
            t.parent[w] = v;
            assigned[w] = 1;
            in_u[w] = 0;
            for (node_id x : g.neighbors(w))
              if (live[x] > 0) --live[x];
          }
          t.rank[v] = i + 1;
        }
        bucket.clear();
      }
      for (node_id v : candidates) live[v] = 0;

      // Step 2: every unranked red now has <= 1 neighbor left in U, so
      // single assignments cannot create collision-freeness violations.
      for (node_id u : u_set) {
        if (!in_u[u]) continue;
        node_id unranked_choice = no_node;
        node_id higher_choice = no_node;
        for (node_id v : g.neighbors(u)) {
          if (!t.member[v] || t.level[v] != l - 1) continue;
          if (t.rank[v] == no_rank) {
            if (unranked_choice == no_node || v < unranked_choice)
              unranked_choice = v;
          } else if (t.rank[v] > i) {
            if (higher_choice == no_node || v < higher_choice)
              higher_choice = v;
          }
        }
        if (unranked_choice != no_node) {
          t.parent[u] = unranked_choice;
          t.rank[unranked_choice] = i;  // exactly one rank-i child
        } else {
          RN_REQUIRE(higher_choice != no_node,
                     "blue node has only same-rank ranked red neighbors; "
                     "cannot happen per construction invariant");
          t.parent[u] = higher_choice;
        }
        assigned[u] = 1;
        in_u[u] = 0;
      }
    }
  }

  // Roots (and an isolated single-node forest) that never got children.
  for (node_id r : t.roots)
    if (t.member[r] && t.rank[r] == no_rank) t.rank[r] = 1;
  return t;
}

}  // namespace rn::core
