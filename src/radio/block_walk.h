// The reception tally of the radio model (paper section 1.1): per round,
// every listener's count of transmitting neighbors and the index of the last
// one it heard, packed into one 64-bit hit word — count in the high half,
// transmitter index in the low half. A listener hears a message iff its
// count is exactly one.
//
// `block_walker` is the one implementation of that tally. It walks a CSR
// (compressed sparse row) adjacency over an owned range [first, last) of the
// fixed 32-block listener plan and appends every first-touched listener to
// its block's touch list, in walk order. Every caller hands it a CSR the
// same way, through `load`:
//   * radio::network — the graph's own CSR, all 32 blocks;
//   * each dist worker rank — the partitioned_view (graph/partitioned.h)
//     it fills from the rows the coordinator ships;
//   * the dist coordinator's local cover for orphaned blocks — the resident
//     trial graph.
// A team of one walks that CSR in place when every row already lies inside
// the owned blocks. Otherwise the walker copies each row's runs inside the
// owned blocks into member slices: member k of a team of T owns the blocks b
// with (b - first) mod T == k, and its slice's row u holds u's neighbors
// inside those blocks. An adjacency below the volume floor gets a team of
// one and no threads.
//
// Determinism: every slice is walked in transmitter-index order with its
// rows ascending, and each block lives in exactly one slice, so every
// listener's hit word and touch-list entry is written by one member in the
// order the single-CSR walk would write them. The words and each block's
// first-touch order are therefore identical at every team size. Dispatch
// then runs in ascending block order (network::step); together that is the
// channel-v1 contract.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "radio/touch_list.h"

namespace rn::radio {

/// Blocks of the fixed listener plan; core::kChannelContractBlocks names it
/// for the channel contract. A constant, never the team size, so the
/// listener partition — and with it the reception dispatch order — is the
/// same at every team size. It also caps a team at one member per block.
inline constexpr unsigned kPlanBlocks = 32;

/// A host's vector ISA. The walk is scalar on every host; this only names
/// the host. Kept for bench/perf/layer_trace.cpp, which reports it.
enum class simd_level : std::uint8_t { scalar = 0, avx2 = 1, avx512 = 2 };

/// Kept for bench/perf/layer_trace.cpp and the timing sidecar's "simd"
/// field, which bench/perf/run.py's host fingerprint reads.
[[nodiscard]] const char* to_string(simd_level l);

/// The host's vector ISA, from one cpuid probe: avx512 with AVX-512F and
/// AVX-512VL, else avx2 with AVX2, else scalar. Kept for the same two
/// readers: bench/perf/run.py refuses to compare reports whose "simd"
/// fields differ, and bench/perf/layer_trace.cpp reports it.
[[nodiscard]] simd_level active_simd_level();

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
  // Team jobs hold pointers into this object.
  block_walker(const block_walker&) = delete;
  block_walker& operator=(const block_walker&) = delete;

  /// Binds to blocks [first, last) of the plan `bounds` (size blocks + 1;
  /// bounds.back() is the node count; copied) and sizes the round state.
  /// Drops any adjacency and team: `load` supplies the next.
  void bind(std::span<const node_id> bounds, unsigned first, unsigned last);

  /// Sets the adjacency to walk: `csr` has a row for every node id; entries
  /// outside the owned blocks are skipped. A team of `members` walks it,
  /// capped at the owned block count, and at one when the owned volume (the
  /// entries inside the owned blocks) is below the floor. A team of one
  /// whose rows all lie inside the owned blocks walks `csr` in place and
  /// returns true: `csr` must then outlive the binding. Otherwise each
  /// row's owned runs are copied into one slice per member and it returns
  /// false: `csr` may be freed. Only a team of two or more starts threads
  /// (the caller plus helpers), and they build the slices. Results are
  /// identical at every size.
  bool load(graph::csr_ref csr, unsigned members);

  /// The owned block range [first_block(), last_block()).
  [[nodiscard]] unsigned first_block() const { return first_; }
  [[nodiscard]] unsigned last_block() const { return last_; }
  [[nodiscard]] unsigned team_size() const;
  /// Rounds whose row volume (sum of the transmitters' row lengths) is below
  /// this walk on the calling thread even when a team exists; `load` builds
  /// no team for an adjacency whose owned volume is below it.
  void set_min_parallel_volume(std::size_t v) { min_parallel_volume_ = v; }

  /// Tallies one round: `tx_ids[i]` transmits with index i.
  void walk(std::span<const node_id> tx_ids);

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
  /// Where first touches go: listener v belongs to block `owner[v - base]`
  /// (relative to first_), whose list is `lists[owner[v - base]]`.
  struct touch_route {
    touch_list* lists;
    const std::uint8_t* owner;
    node_id base;

    void push(node_id v) const { lists[owner[v - base]].push(v); }
  };
  struct owned_csr {
    std::unique_ptr<std::uint32_t[]> row_start;
    std::unique_ptr<node_id[]> adj;
  };

  /// Walks every transmitter's row of one slice, in index order.
  void walk_slice(const graph::csr_ref& s);
  /// Tallies transmitter index `tx` into the hit words of the listeners
  /// adj[begin, end), routing each first touch to its block's list. Raw
  /// pointers, not members: the loop then keeps them in registers.
  static void walk_row(const node_id* adj, std::uint64_t* hits,
                       std::uint32_t begin, std::uint32_t end,
                       std::uint32_t tx, const touch_route& route);
  [[nodiscard]] bool reaches_parallel_volume() const;

  std::vector<node_id> bounds_;
  unsigned first_ = 0;
  unsigned last_ = 0;
  std::vector<std::uint64_t> hits_;
  std::vector<touch_list> lists_;  ///< per owned block, capacity = its size
  /// Block of each owned listener relative to first_, indexed from the
  /// first owned node id; route_ points first touches through it.
  std::vector<std::uint8_t> owner_;
  touch_route route_{};
  /// What the walk reads, one CSR per member (one when there is no team);
  /// `owned_` holds them unless the loaded CSR is walked in place.
  std::vector<graph::csr_ref> slices_;
  std::vector<owned_csr> owned_;
  std::size_t min_parallel_volume_ = 0;
  // This round's transmitters, read by every team member.
  std::span<const node_id> txs_;
  std::unique_ptr<team> team_;
};

}  // namespace rn::radio
