// The reception tally of the radio model (paper section 1.1): per round,
// every listener's count of transmitting neighbors and the index of the last
// one it heard, packed into one 64-bit hit word — count in the high half,
// transmitter index in the low half. A listener hears a message iff its
// count is exactly one.
//
// `block_walker` is the one implementation of that tally. It walks a CSR
// (compressed sparse row) adjacency over an owned range [first, last) of the
// fixed 32-block listener plan and appends every first-touched listener to
// its block's touch list, in walk order. Three callers share it:
//   * radio::network — its private CSR, all 32 blocks;
//   * each dist worker rank — its partitioned_view slice (graph/partitioned.h);
//   * the dist coordinator's local cover for orphaned blocks (team size 1).
//
// Determinism: transmitters are walked in index order and every listener's
// hit word and touch-list entry is written by the one thread that walks its
// block, so the words and each block's first-touch order are identical on
// one thread or many, at every SIMD tier. Dispatch then runs in ascending
// block order (network::step); together that is the channel-v1 contract.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "radio/simd_kernels.h"
#include "radio/touch_list.h"

namespace rn::radio {

/// Vector ISA tier of the walk kernels. Every tier produces identical hit
/// words and first-touch orders — the kernel is selected by a runtime CPU
/// probe and is purely an execution knob, like thread counts and
/// fast-forward.
enum class simd_level : std::uint8_t { scalar = 0, avx2 = 1, avx512 = 2 };

[[nodiscard]] const char* to_string(simd_level l);

/// Best tier this build *and* this CPU support (cpuid-probed once; always
/// `scalar` when built with RN_DISABLE_SIMD or on non-x86 hosts).
[[nodiscard]] simd_level detected_simd_level();

/// The tier the next walks will use. Defaults to the detected tier; the
/// RN_SIMD environment variable (scalar|avx2|avx512|auto) presets it at
/// startup — handy for A/B byte-identity checks without rebuilding.
[[nodiscard]] simd_level active_simd_level();

/// Overrides the active tier, clamped to detected_simd_level(). Results are
/// byte-identical at every tier (tests/test_radio.cpp pins this), so this
/// exists for benchmarks, tests, and the RN_SIMD escape hatch.
void set_simd_level(simd_level l);

/// Process-wide shard-team workload counters. Timing is diagnostic only —
/// reported by the bench timing sidecar, never part of protocol results.
struct shard_totals {
  /// Walks that ran on a shard team (vs the calling thread alone).
  std::int64_t parallel_rounds = 0;
  /// Cumulative busy nanoseconds per team slot (slot 0 = the calling
  /// thread); sized to the largest team seen in this process.
  std::vector<std::int64_t> busy_ns;
};

/// One round's reception tally over an owned block range, with the round
/// state it fills. Not thread-safe: one caller walks at a time (the team it
/// runs is internal).
class block_walker {
 public:
  block_walker();
  ~block_walker();
  // The team holds a back-pointer to this object.
  block_walker(const block_walker&) = delete;
  block_walker& operator=(const block_walker&) = delete;

  /// Binds to a CSR — row u spans adj[row_start[u] .. row_start[u+1]) and is
  /// strictly ascending — whose rows hold only listeners inside blocks
  /// [first, last) of the plan `bounds` (size blocks + 1; bounds.back() is
  /// the node count), and sizes the round state. The CSR and `bounds` must
  /// outlive the binding. Keeps the team, capped to the new range.
  void bind(const std::uint32_t* row_start, const node_id* adj,
            std::span<const node_id> bounds, unsigned first, unsigned last);

  /// `members >= 2` runs walks on a persistent team of that many threads
  /// (the caller plus helpers; capped at the owned block count), `<= 1`
  /// tears the team down. Results are identical at every size.
  void set_team(unsigned members);
  [[nodiscard]] unsigned team_size() const;
  /// Rounds whose row volume (sum of the transmitters' row lengths) is below
  /// this walk on the calling thread even when a team exists.
  void set_min_parallel_volume(std::size_t v) { min_parallel_volume_ = v; }

  /// Tallies one round: `tx_ids[i]` transmits with index i. Returns the
  /// kernel tier the walk ran on.
  simd_level walk(std::span<const node_id> tx_ids);

  /// Round state: packed hit words indexed by node id (zero unless touched
  /// this round), and the first-touch list of block b at `lists()[b -
  /// first]`. Callers that consume a round zero the touched words and clear
  /// the lists (or call clear_round) before the next walk.
  [[nodiscard]] std::uint64_t* hits() { return hits_.data(); }
  [[nodiscard]] std::span<touch_list> lists() { return lists_; }
  [[nodiscard]] std::span<const node_id> touched(unsigned b) const {
    const touch_list& l = lists_[b - first_];
    return {l.begin(), l.end()};
  }
  [[nodiscard]] std::uint64_t hit_word(node_id v) const { return hits_[v]; }
  /// Zeroes the touched hit words and empties the lists — O(touched).
  void clear_round();

  [[nodiscard]] static shard_totals process_totals();

 private:
  class team;

  /// Walks the slice of every transmitter row that falls in blocks [b0, b1).
  void walk_range(unsigned b0, unsigned b1);

  const std::uint32_t* row_start_ = nullptr;
  const node_id* adj_ = nullptr;
  const node_id* bounds_ = nullptr;
  unsigned first_ = 0;
  unsigned last_ = 0;
  std::vector<std::uint64_t> hits_;
  std::vector<touch_list> lists_;  ///< per owned block, capacity = its size
  /// Block of each owned listener relative to first_, indexed from the
  /// first owned node id; route_ points first touches through it.
  std::vector<std::uint8_t> owner_;
  detail::touch_route route_{};
  std::size_t min_parallel_volume_ = 0;
  // This round's transmitters and kernel, read by every team member.
  std::span<const node_id> txs_;
  detail::segment_fn segment_ = nullptr;
  std::unique_ptr<team> team_;
};

}  // namespace rn::radio
