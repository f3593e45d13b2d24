// Internal: per-ISA segment kernels behind the block walker's runtime SIMD
// dispatch (src/radio/block_walk.cpp). Not part of the public API.
//
// A kernel walks one transmitter's CSR row segment adj[begin, end) — the
// whole row, or the slice that falls in the blocks a team member claimed —
// and merges each visited listener's packed hit word: transmitting-neighbor
// count in the high 32 bits, index of the last transmitter heard in the low
// 32. Listeners whose word was zero are appended, in visit order, to the
// touch list of their owner block (`touch_route`). One kernel per tier; the
// scalar one lives in block_walk.cpp.
//
// Contract (what makes vectorization safe and byte-identity hold):
//   * rows are strictly ascending (graph builder sorts + dedups), so the
//     listeners of one segment are pairwise distinct — a gather/update/
//     scatter batch has no intra-batch conflicts;
//   * segments of one round are processed in transmitter-index order and
//     each listener's word is written by exactly one thread (the one walking
//     its block), so the merged count|last-sender words and the first-touch
//     order are identical to the scalar walk's, lane width notwithstanding.
//
// The AVX2/AVX-512 TUs are compiled with ISA flags per-TU (see CMakeLists);
// they are only *called* after the cpuid probe confirms support, and
// RN_DISABLE_SIMD removes them from the build entirely.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "radio/touch_list.h"

namespace rn::radio::detail {

/// Where first touches go: listener v belongs to block
/// `owner[v - base]` (relative to the walker's first owned block), whose
/// list is `lists[owner[v - base]]`.
struct touch_route {
  touch_list* lists;
  const std::uint8_t* owner;
  node_id base;

  void push(node_id v) const { lists[owner[v - base]].push(v); }
};

using segment_fn = void (*)(const node_id* adj, std::uint64_t* hits,
                            std::uint32_t begin, std::uint32_t end,
                            std::uint32_t tx, const touch_route& route);

#if defined(RN_HAVE_SIMD_AVX2)
[[nodiscard]] segment_fn avx2_segment();
#endif
#if defined(RN_HAVE_SIMD_AVX512)
[[nodiscard]] segment_fn avx512_segment();
#endif

}  // namespace rn::radio::detail
