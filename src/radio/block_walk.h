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
//   * radio::network — all 32 blocks, sliced straight from the graph;
//   * each dist worker rank — its partitioned_view (graph/partitioned.h),
//     walked in place on one thread or sliced for a team;
//   * the dist coordinator's local cover for orphaned blocks (in place).
//
// A team of T members splits the owned blocks into T interleaved member
// slices: member k owns the blocks b with (b - first) mod T == k and walks
// its own CSR, whose row u holds u's neighbors inside those blocks. A team
// of one walks a single CSR holding every owned listener.
//
// Determinism: every slice is walked in transmitter-index order with its
// rows ascending, and each block lives in exactly one slice, so every
// listener's hit word and touch-list entry is written by one member in the
// order the single-CSR walk would write them. The words and each block's
// first-touch order are therefore identical at every team size and SIMD
// tier. Dispatch then runs in ascending block order (network::step);
// together that is the channel-v1 contract.
#pragma once

#include <cstdint>
#include <functional>
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

/// A CSR adjacency: row u spans adj[row_start[u] .. row_start[u+1]) and is
/// strictly ascending.
struct csr_ref {
  const std::uint32_t* row_start = nullptr;
  const node_id* adj = nullptr;
};

/// One round's reception tally over an owned block range, with the round
/// state it fills. Not thread-safe: one caller walks at a time (the team it
/// runs is internal).
class block_walker {
 public:
  /// Row u of an adjacency to slice: u's neighbors inside the owned blocks,
  /// strictly ascending.
  using row_source = std::function<std::span<const node_id>(node_id)>;

  block_walker();
  ~block_walker();
  // Team jobs hold pointers into this object.
  block_walker(const block_walker&) = delete;
  block_walker& operator=(const block_walker&) = delete;

  /// Binds to blocks [first, last) of the plan `bounds` (size blocks + 1;
  /// bounds.back() is the node count; copied) and sizes the round state.
  /// Drops any adjacency and team: `attach` or `slice` supplies the next.
  void bind(std::span<const node_id> bounds, unsigned first, unsigned last);

  /// Walks a caller-owned CSR in place on the calling thread. Its rows must
  /// hold only listeners inside the owned blocks, and it must outlive the
  /// binding.
  void attach(csr_ref csr);

  /// Copies `rows` (u in [0, node count)) into `members` interleaved member
  /// slices, capped at the owned block count, and walks them on a
  /// persistent team of that many threads (the caller plus helpers).
  /// `members <= 1` builds one CSR and walks it on the calling thread.
  /// Results are identical at every size. The team builds the slices, so
  /// `rows` is called from its threads concurrently and must not throw.
  void slice(const row_source& rows, unsigned members);

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
  struct csr {
    std::unique_ptr<std::uint32_t[]> row_start;
    std::unique_ptr<node_id[]> adj;
  };

  /// Walks every transmitter's row of one slice, in index order.
  void walk_slice(const csr_ref& s);
  [[nodiscard]] bool reaches_parallel_volume() const;

  std::vector<node_id> bounds_;
  unsigned first_ = 0;
  unsigned last_ = 0;
  std::vector<std::uint64_t> hits_;
  std::vector<touch_list> lists_;  ///< per owned block, capacity = its size
  /// Block of each owned listener relative to first_, indexed from the
  /// first owned node id; route_ points first touches through it.
  std::vector<std::uint8_t> owner_;
  detail::touch_route route_{};
  /// What the walk reads, one CSR per member (one when there is no team);
  /// `owned_` holds them unless they were attached.
  std::vector<csr_ref> slices_;
  std::vector<csr> owned_;
  std::size_t total_volume_ = 0;  ///< row entries over all owned slices
  std::size_t min_parallel_volume_ = 0;
  // This round's transmitters and kernel, read by every team member.
  std::span<const node_id> txs_;
  detail::segment_fn segment_ = nullptr;
  std::unique_ptr<team> team_;
};

}  // namespace rn::radio
