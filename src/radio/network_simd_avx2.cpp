// AVX2 segment kernel (4 listeners per iteration).
//
// Per batch: one 128-bit load of four 32-bit neighbor ids, one 64-bit
// gather of their packed hit words, a vectorized count|last-sender merge,
// and a branchless first-touch mask (cmpeq + movemask). AVX2 has no scatter
// and no compress-store, so the updated words go back with four scalar
// stores and fresh ids are appended bit-by-bit from the mask — the gather
// and the masked touch detection are where the win over the scalar walk is.
//
// See simd_kernels.h for the contract that makes the batch conflict-free
// and byte-identical to the scalar walk.
#include "radio/simd_kernels.h"

#if defined(RN_HAVE_SIMD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace rn::radio::detail {
namespace {

constexpr std::uint64_t kCountMask = 0xffffffff00000000ULL;

void segment_avx2(const node_id* adj, std::uint64_t* hits,
                  std::uint32_t begin, std::uint32_t end, std::uint32_t tx,
                  const touch_route& route) {
  const __m256i inc = _mm256_set1_epi64x(1LL << 32);
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(kCountMask));
  const __m256i txv = _mm256_set1_epi64x(static_cast<long long>(tx));
  std::uint32_t a = begin;
  alignas(16) node_id ids[4];
  alignas(32) std::uint64_t nh[4];
  for (; a + 4 <= end; a += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(adj + a));
    const __m256i hs = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(hits), v, 8);
    // count += 1 (high half), last sender := tx (low half) — the vector
    // form of hits[v] = ((hs + (1 << 32)) & kCountMask) | tx.
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(nh),
        _mm256_or_si256(_mm256_and_si256(_mm256_add_epi64(hs, inc), mask),
                        txv));
    unsigned fresh = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(hs, _mm256_setzero_si256()))));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids), v);
    // No scatter in AVX2; ids within a batch are distinct (strictly
    // ascending row), so four independent stores are exact.
    for (int j = 0; j < 4; ++j) hits[ids[j]] = nh[j];
    // Ascending set-bit order keeps first touches in visit (= id) order.
    while (fresh != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(fresh));
      fresh &= fresh - 1;
      route.push(ids[lane]);
    }
  }
  for (; a < end; ++a) {  // scalar tail, < 4 listeners
    const node_id v = adj[a];
    const std::uint64_t hs = hits[v];
    if (hs == 0) route.push(v);
    hits[v] = ((hs + (1ULL << 32)) & kCountMask) | tx;
  }
}

}  // namespace

segment_fn avx2_segment() { return &segment_avx2; }

}  // namespace rn::radio::detail

#endif  // RN_HAVE_SIMD_AVX2 && __AVX2__
