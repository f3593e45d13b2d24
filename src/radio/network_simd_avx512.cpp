// AVX-512 segment kernel (8 listeners per iteration).
//
// Per batch: one 256-bit load of eight 32-bit neighbor ids, a 64-bit hit-
// word gather, the vectorized count|last-sender merge, a native scatter of
// the updated words, and a first-touch mask from one compare — the batch
// itself is branch-free; only fresh lanes leave the vector unit, to be
// routed to their owner block's touch list. Uses AVX512F (gather/scatter/
// cmp on 64-bit lanes); the tier also requires AVX512VL, as the build flags
// and the cpuid probe have since the tier was introduced.
//
// Scatter safety: lanes within a batch are pairwise distinct (rows are
// strictly ascending), so no write conflicts exist for the scatter to
// resolve; see simd_kernels.h for the full contract.
#include "radio/simd_kernels.h"

#if defined(RN_HAVE_SIMD_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

namespace rn::radio::detail {
namespace {

constexpr std::uint64_t kCountMask = 0xffffffff00000000ULL;

void segment_avx512(const node_id* adj, std::uint64_t* hits,
                    std::uint32_t begin, std::uint32_t end, std::uint32_t tx,
                    const touch_route& route) {
  const __m512i inc = _mm512_set1_epi64(1LL << 32);
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kCountMask));
  const __m512i txv = _mm512_set1_epi64(static_cast<long long>(tx));
  std::uint32_t a = begin;
  alignas(32) node_id ids[8];
  for (; a + 8 <= end; a += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(adj + a));
    // Masked gather with a zeroed source: same full-mask load, but GCC's
    // plain _mm512_i32gather_epi64 expands with an undefined pass-through
    // vector and trips -Wmaybe-uninitialized.
    const __m512i hs = _mm512_mask_i32gather_epi64(
        _mm512_setzero_si512(), static_cast<__mmask8>(0xff), v, hits, 8);
    unsigned fresh = _mm512_cmpeq_epi64_mask(hs, _mm512_setzero_si512());
    _mm512_i32scatter_epi64(
        hits, v,
        _mm512_or_si512(_mm512_and_si512(_mm512_add_epi64(hs, inc), mask),
                        txv),
        8);
    // First touches fan out to per-owner lists, so no single compress
    // destination exists; extract the (typically few) fresh lanes in
    // ascending lane order — the visit order the dispatch contract pins.
    if (fresh != 0) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(ids), v);
      while (fresh != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(fresh));
        fresh &= fresh - 1;
        route.push(ids[lane]);
      }
    }
  }
  for (; a < end; ++a) {  // scalar tail, < 8 listeners
    const node_id v = adj[a];
    const std::uint64_t hs = hits[v];
    if (hs == 0) route.push(v);
    hits[v] = ((hs + (1ULL << 32)) & kCountMask) | tx;
  }
}

}  // namespace

segment_fn avx512_segment() { return &segment_avx512; }

}  // namespace rn::radio::detail

#endif  // RN_HAVE_SIMD_AVX512 && __AVX512F__ && __AVX512VL__
