// The one CSR fill: graph::from_edges (every generator and graph::builder)
// and the partitioned views of distributed ranks all fill through it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace rn::graph {

/// The default `counted` callback of fill_csr: does nothing.
struct ignore_count {
  void operator()(std::uint64_t /*total*/) const {}
};

/// Fills a CSR of `n` rows: `entries(put)` calls put(row, v) once per row
/// entry and must replay identically, because it runs twice — a counting
/// pass, then, after the prefix sums, a scatter. `counted(total)` runs once
/// between the two passes with the counting pass's entry count, duplicates
/// included. Each row is then sorted and deduplicated in place. Throws if the
/// entries overflow 32-bit offsets.
template <class Entries, class Counted = ignore_count>
void fill_csr(std::size_t n, Entries&& entries,
              std::vector<std::uint32_t>& row_start,
              std::vector<node_id>& adj, Counted counted = {}) {
  row_start.assign(n + 1, 0);
  std::uint64_t total = 0;
  entries([&](node_id row, node_id) {
    ++row_start[row + 1];
    ++total;
  });
  RN_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
             "adjacency too large for 32-bit CSR offsets");
  counted(total);
  for (std::size_t u = 0; u < n; ++u) row_start[u + 1] += row_start[u];
  adj.assign(total, 0);
  {
    std::vector<std::uint32_t> cursor(row_start.begin(), row_start.end() - 1);
    entries([&](node_id row, node_id v) { adj[cursor[row]++] = v; });
  }
  // Per-row sorts cost O(sum deg log deg), not a global O(E log E) sort. The
  // write cursor trails every row start, so rows compact in place.
  node_id* a = adj.data();
  std::uint32_t w = 0;
  std::uint32_t begin = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t end = row_start[u + 1];
    std::sort(a + begin, a + end);
    const node_id* last = std::unique(a + begin, a + end);
    for (const node_id* x = a + begin; x != last; ++x) a[w++] = *x;
    row_start[u + 1] = w;
    begin = end;
  }
  adj.resize(w);
  adj.shrink_to_fit();
}

}  // namespace rn::graph
