#include "graph/partitioned.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "graph/fill_csr.h"

namespace rn::graph {

namespace {

/// How many entries ahead the shipped-rows scatter prefetches its store.
constexpr std::size_t kWriteAhead = 16;

}  // namespace

block_plan compute_block_plan(std::span<const std::uint32_t> row_prefix,
                              unsigned blocks) {
  RN_REQUIRE(blocks >= 1, "block plan needs >= 1 block");
  RN_REQUIRE(!row_prefix.empty(), "block plan needs a row prefix");
  const std::size_t node_count = row_prefix.size() - 1;
  const std::size_t total = row_prefix[node_count];
  block_plan plan;
  plan.bounds.assign(blocks + 1, 0);
  plan.bounds[blocks] = static_cast<node_id>(node_count);
  for (unsigned b = 1; b < blocks; ++b) {
    const std::uint32_t target =
        static_cast<std::uint32_t>(total * b / blocks);
    const auto it =
        std::lower_bound(row_prefix.begin(), row_prefix.end(), target);
    auto v = static_cast<node_id>(it - row_prefix.begin());
    if (v > node_count) v = static_cast<node_id>(node_count);
    plan.bounds[b] = std::max(plan.bounds[b - 1], v);
  }
  return plan;
}

block_plan compute_block_plan(const graph& g, unsigned blocks) {
  return compute_block_plan(g.offsets(), blocks);
}

partitioned_view partitioned_view::from_edge_source(std::size_t node_count,
                                                    const edge_source& edges,
                                                    unsigned blocks,
                                                    unsigned first_block,
                                                    unsigned last_block) {
  // The degree pass fixes the plan — identically to a process holding the
  // resident graph, because both run compute_block_plan over the same
  // prefix values.
  block_plan plan;
  {
    std::vector<std::uint32_t> prefix(node_count + 1, 0);
    std::uint64_t total = 0;
    edges([&](node_id u, node_id v) {
      RN_REQUIRE(u < node_count && v < node_count && u != v,
                 "edge source emitted an invalid edge");
      prefix[u + 1] += 1;
      prefix[v + 1] += 1;
      total += 2;
    });
    RN_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
               "adjacency too large for 32-bit CSR offsets");
    for (std::size_t i = 0; i < node_count; ++i) prefix[i + 1] += prefix[i];
    plan = compute_block_plan(prefix, blocks);
  }
  RN_REQUIRE(first_block < last_block && last_block <= plan.blocks(),
             "partitioned view needs a non-empty block range inside the plan");
  partitioned_view pv;
  pv.node_count_ = node_count;
  pv.plan_ = std::move(plan);
  pv.first_block_ = first_block;
  pv.last_block_ = last_block;
  const node_id lo = pv.owned_begin();
  const node_id hi = pv.owned_end();
  // The fill over the entries whose listener is owned.
  fill_csr(
      node_count,
      [&](auto&& put) {
        edges([&](node_id u, node_id v) {
          if (v >= lo && v < hi) put(u, v);
          if (u >= lo && u < hi) put(v, u);
        });
      },
      pv.row_start_, pv.adj_);
  return pv;
}

partitioned_view::filler::filler(block_plan plan, unsigned first_block,
                                 unsigned last_block) {
  RN_REQUIRE(!plan.bounds.empty() && plan.bounds.back() >= 1,
             "partitioned view needs >= 1 node");
  RN_REQUIRE(first_block < last_block && last_block <= plan.blocks(),
             "partitioned view needs a non-empty block range inside the plan");
  view_.node_count_ = plan.bounds.back();
  view_.plan_ = std::move(plan);
  view_.first_block_ = first_block;
  view_.last_block_ = last_block;
  view_.row_start_.assign(view_.node_count_ + 1, 0);
  next_listener_ = view_.owned_begin();
}

void partitioned_view::filler::add_lengths(
    node_id first_row, std::span<const std::uint32_t> lengths) {
  std::vector<std::uint32_t>& rs = view_.row_start_;
  const std::size_t n = view_.node_count_;
  RN_REQUIRE(first_row == next_row_ && lengths.size() <= n - next_row_,
             "shipped view row lengths out of order");
  // Row u's length waits at rs[u + 1] until every length is in.
  std::copy(lengths.begin(), lengths.end(), rs.begin() + first_row + 1);
  next_row_ += lengths.size();
  if (next_row_ < n) return;
  // rs[u + 1] becomes row u's start: the scatter's cursor for row u, which
  // the scatter then advances to the row's end, the next row's start.
  std::uint64_t total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t len = rs[u + 1];
    rs[u + 1] = static_cast<std::uint32_t>(total);
    total += len;
  }
  RN_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
             "adjacency too large for 32-bit CSR offsets");
  view_.adj_.resize(total);
}

void partitioned_view::filler::add_rows(node_id first,
                                        std::span<const std::uint32_t> offsets,
                                        std::span<const node_id> adj) {
  RN_REQUIRE(lengths_done() && first == next_listener_ && offsets.size() >= 2 &&
                 offsets.size() - 1 <= view_.owned_end() - first &&
                 offsets.back() >= offsets.front() &&
                 offsets.back() - offsets.front() == adj.size(),
             "shipped listener rows out of order or misframed");
  const std::size_t n = view_.node_count_;
  const std::size_t size = view_.adj_.size();
  std::uint32_t* cursor = view_.row_start_.data() + 1;
  node_id* out = view_.adj_.data();
  const node_id* row = adj.data();
  // The scatter's stores land all over the view; the slot an entry
  // kWriteAhead places later is prefetched, which halves the scatter.
  const node_id* ahead =
      row + adj.size() - std::min<std::size_t>(kWriteAhead, adj.size());
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    RN_REQUIRE(offsets[i + 1] >= offsets[i],
               "shipped listener row offsets descend");
    const node_id v = first + static_cast<node_id>(i);
    const node_id* end = row + (offsets[i + 1] - offsets[i]);
    for (; row != end; ++row) {
      if (row < ahead && row[kWriteAhead] < n)
        __builtin_prefetch(out + cursor[row[kWriteAhead]], 1);
      RN_REQUIRE(*row < n, "shipped listener row names no node");
      const std::uint32_t at = cursor[*row]++;
      RN_REQUIRE(at < size, "shipped listener rows overflow the view");
      out[at] = v;
    }
  }
  next_listener_ = first + static_cast<node_id>(offsets.size() - 1);
  scattered_ += adj.size();
}

partitioned_view partitioned_view::filler::finish() && {
  // An exact fill leaves the offsets ascending to the end of the adjacency,
  // which keeps every row the walker reads inside it.
  const std::vector<std::uint32_t>& rs = view_.row_start_;
  RN_REQUIRE(rows_done() && scattered_ == view_.adj_.size() &&
                 rs.back() == view_.adj_.size() &&
                 std::is_sorted(rs.begin(), rs.end()),
             "shipped rows do not fill the view's rows exactly");
  return std::move(view_);
}

}  // namespace rn::graph
