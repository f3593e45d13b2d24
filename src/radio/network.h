// Synchronous radio-network round engine (paper section 1.1 model).
//
// Each round, every node either transmits one packet or listens. A listening
// node v:
//   - receives packet p  iff exactly one neighbor of v transmits (p is that
//     neighbor's packet);
//   - observes `collision` iff >= 2 neighbors transmit AND the network model
//     has collision detection; without CD it observes `silence`;
//   - observes `silence`  iff no neighbor transmits.
// Transmitters observe nothing (half-duplex radios).
//
// Execution modes: `step` resolves one round on the channel; `advance` skips
// a run of *idle* rounds — rounds in which no node transmits — in O(1). An
// idle round has no receptions, no erasure-RNG draws and no energy cost, so
// advancing is observably identical to stepping with an empty transmitter
// list, only cheaper. Protocol runners that know their next busy round use
// `advance` to fast-forward; see README "Fast-forward execution".
//
// Transmit API: the hot path is `step(round_buffer, on_rx)` — a reusable
// buffer of (node, packet reference) pairs over caller-owned packets, with
// receptions delivered through a statically-dispatched callable. A protocol
// that broadcasts one message keeps a single flyweight `packet` for its
// whole run and references it from every transmission: no per-round packet
// copies, no shared_ptr refcount churn, no std::function dispatch.
//
// Intra-trial parallelism: the row walk of one round (radio/block_walk.h)
// can run on a team of worker threads over a fixed partition of the node-id
// space into 32 contiguous *listener* blocks, balanced by adjacency volume.
// Member k of a team of T owns the blocks b with b mod T == k and walks its
// own slice of the adjacency — each transmitter's neighbors inside those
// blocks — in transmitter order. Each listener's packed hit word is written
// by exactly one member, and the reception dispatch visits blocks in
// ascending order — so receptions are delivered in one canonical order that
// depends only on the graph and the transmit list, never on the thread
// count. Results are byte-identical at every intra-trial thread count; see
// README "Intra-trial parallel reception".
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "graph/graph.h"
#include "radio/block_walk.h"
#include "radio/packet.h"
#include "radio/touch_list.h"

namespace rn::radio {

/// What a listening node observes in one round.
enum class observation : std::uint8_t { silence, message, collision };

/// Delivered to the per-round receive callback for every node that observed
/// something other than silence (and, optionally, silence itself).
struct reception {
  node_id listener = no_node;
  observation what = observation::silence;
  const packet* pkt = nullptr;  ///< valid iff what == message
  node_id from = no_node;       ///< valid iff what == message
};

/// One planned transmission: the node and a reference to a packet that the
/// planner keeps alive until the round is stepped.
struct tx_ref {
  node_id from;
  const packet* pkt;
};

/// Reusable per-round transmit list. `add` references a caller-owned packet
/// (the flyweight pattern: one shared message packet for a whole broadcast);
/// `add_owned` copies a by-value packet into an internal arena whose slots
/// are recycled across rounds (for planners that mint per-node packets, e.g.
/// beacons). After the first few rounds a protocol's planning loop performs
/// no allocation at all.
class round_buffer {
 public:
  void clear() {
    items_.clear();
    arena_used_ = 0;
  }
  void add(node_id from, const packet& p) { items_.push_back({from, &p}); }
  /// A temporary packet would dangle before step() reads it — use add_owned.
  void add(node_id from, packet&& p) = delete;
  void add_owned(node_id from, packet p) {
    // std::deque keeps element addresses stable across push_back, so refs
    // handed out earlier this round stay valid while the arena grows.
    packet& slot =
        arena_used_ < arena_.size() ? arena_[arena_used_] : arena_.emplace_back();
    slot = std::move(p);
    items_.push_back({from, &slot});
    ++arena_used_;
  }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const tx_ref& operator[](std::size_t i) const {
    return items_[i];
  }

 private:
  std::vector<tx_ref> items_;
  std::deque<packet> arena_;
  std::size_t arena_used_ = 0;
};

/// Static model configuration.
struct model {
  bool collision_detection = true;
  /// Independent per-reception erasure probability (0 = the paper's reliable
  /// channel). An erased single-transmitter reception is observed as
  /// silence; collisions are unaffected. Used for robustness testing beyond
  /// the paper's model.
  double erasure_prob = 0.0;
  std::uint64_t erasure_seed = 0x5eedULL;
};

/// Cumulative protocol-level counters, cheap enough to always maintain.
/// `rounds` counts every protocol round, stepped or skipped: fast-forwarding
/// never changes these numbers (see the fast-forward equivalence tests).
struct network_stats {
  std::int64_t rounds = 0;
  std::int64_t transmissions = 0;
  std::int64_t deliveries = 0;          ///< successful single-sender receptions
  std::int64_t collisions_observed = 0; ///< listener-side collision events (CD only counts observable ones)
  std::int64_t erasures = 0;            ///< receptions lost to channel erasure
};

/// Process-wide engine workload counters (how much channel resolution was
/// actually simulated vs skipped). Purely diagnostic: reported by the bench
/// timing sidecar, never part of protocol results.
struct engine_totals {
  std::int64_t stepped_rounds = 0;  ///< rounds resolved by `step`
  std::int64_t skipped_rounds = 0;  ///< rounds fast-forwarded by `advance`
  /// Always 0: the walk has no vector kernel. Kept for
  /// bench/perf/layer_trace.cpp, which reports it as radio.simd_rounds.
  std::int64_t simd_stepped_rounds = 0;
};

/// Process-wide intra-trial parallelism policy, consulted by every `network`
/// at construction. `threads == 1` (the default) keeps construction serial;
/// `threads == 0` is *auto*: networks with at least `auto_threshold` nodes
/// borrow whatever worker capacity the trial pool is not using (see
/// `set_worker_budget`). An explicit `threads >= 2` forces that team size
/// regardless of node count or budget — results are byte-identical either
/// way, so the policy is purely an execution knob.
struct intra_trial_policy {
  unsigned threads = 1;
  std::size_t auto_threshold = 250'000;
  /// Rounds whose total row-walk volume (sum of transmitter degrees) is
  /// below this run on the stepping thread even when a team exists; the
  /// per-round synchronization would cost more than it saves.
  std::size_t min_parallel_volume = 16'384;
};

void set_intra_trial_policy(const intra_trial_policy& p);
[[nodiscard]] intra_trial_policy get_intra_trial_policy();

/// Worker-capacity accounting shared between the scenario-level trial pool
/// and intra-trial shard teams: the pool's workers hold slots while they
/// run, and anything left over (or returned by workers whose queue drained)
/// can be borrowed by networks whose trials are big enough to shard. The
/// budget caps total process concurrency at `total` (default: hardware
/// concurrency). Purely an execution detail — never affects results.
void set_worker_budget(unsigned total);
[[nodiscard]] unsigned worker_budget();
/// Takes up to `want` slots; returns how many were actually granted.
[[nodiscard]] unsigned borrow_workers(unsigned want);
void return_workers(unsigned n);

/// Hook through which a multi-process backend (src/dist) takes over the row
/// walks of stepped rounds. At construction every network offers its
/// topology to the installed hook; on adoption the network's walker gets no
/// adjacency and no shard team — at n = 10^8 the member slices a team would
/// copy are the memory that matters — and the network hands each stepped
/// round's transmit list to `walk_round`,
/// which must leave per-listener hit words and per-block first-touch lists
/// exactly as the local block walk would. The reception dispatch that follows
/// (block order, erasure draws, callbacks) is shared and unchanged, which is
/// what keeps distributed results byte-identical to single-process runs.
class remote_walk {
 public:
  virtual ~remote_walk() = default;
  /// Offered a network's topology at construction. Return true to claim the
  /// walks for this network's lifetime (implementations typically match by
  /// pointer identity against a trial graph they were armed with).
  virtual bool adopt(const graph::graph& g) = 0;
  /// Paired with every successful adopt when the network is destroyed.
  virtual void release(const graph::graph& g) = 0;
  /// Executes one round's walk: tally every transmitter's hits on every
  /// listener into `hit_state` (packed count|last-sender words, indexed by
  /// node id) and append each first-touched listener to its owner entry of
  /// `block_touched`, in the canonical per-block first-touch order.
  virtual void walk_round(const round_buffer& txs, std::uint64_t* hit_state,
                          touch_list* block_touched) = 0;
};

/// Installs (nullptr clears) the process-wide hook consulted by network
/// constructors. Installers arm it around a trial and must not race network
/// construction on other threads (src/dist serializes trials for this).
void set_remote_walk(remote_walk* hook);
[[nodiscard]] remote_walk* get_remote_walk();

/// The round engine. Protocol runners provide, per round, the list of
/// transmitting nodes with their packets; the engine resolves the channel and
/// reports receptions via callback.
///
/// A team of one walks the graph's own CSR (compressed sparse row)
/// adjacency in place; a team of T walks T member slices of it, copied at
/// construction or resize, each holding that member's listener blocks. The
/// per-round hot loop walks one contiguous row per transmitter and keeps
/// per-listener state in flat arrays, with a per-round transmitter bitmap to
/// separate talkers from listeners (bench_micro BM_NetworkStep /
/// BM_StepNoAlloc track this path). The graph must outlive the network.
///
/// Reception order contract: listeners are resolved block by block (a fixed
/// degree-balanced partition of the node-id space computed at construction),
/// and within a block in the order the block walk first touches them.
/// Both the partition and the touch order depend only on the graph and the
/// transmit list, so the callback order — and with it every RNG draw the
/// callback or the erasure channel makes — is identical whether the walk ran
/// on one thread or many.
class network {
 public:
  network(const graph::graph& g, model m);
  ~network();

  network(const network&) = delete;
  network& operator=(const network&) = delete;
  // Moves are deleted on purpose: a moved-from network that still flushed
  // its round counters in ~network() would double-count the process-wide
  // engine totals, and the walker's team is bound to this object's arrays.
  network(network&&) = delete;
  network& operator=(network&&) = delete;

  [[nodiscard]] const graph::graph& topology() const { return *g_; }
  [[nodiscard]] const model& config() const { return model_; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] const network_stats& stats() const { return stats_; }
  [[nodiscard]] round_t now() const { return stats_.rounds; }

  /// Rounds of this network's history that were fast-forwarded (subset of
  /// stats().rounds). Diagnostic only — identical protocol outcomes are
  /// produced whether rounds are stepped or skipped.
  [[nodiscard]] std::int64_t skipped_rounds() const { return skipped_; }

  /// Aggregated stepped/skipped counts over every network flushed so far in
  /// this process (thread-safe; used for engine accounting in bench timing).
  [[nodiscard]] static engine_totals process_totals();

  /// Aggregated intra-trial shard counters/timing of every walk so far in
  /// this process (published live; bench timing sidecar only).
  [[nodiscard]] static shard_totals process_shard_totals();

  /// Publishes this network's so-far-unflushed round counters to the
  /// process-wide totals. Idempotent per round: each round is
  /// counted exactly once no matter how often this is called — ~network()
  /// flushes the remainder, so short-lived networks need never call it. Lets
  /// a long-running live network show up in the timing sidecar.
  void flush_totals();

  /// Per-node transmission counts — the energy metric of radio networks.
  /// 32-bit on purpose: a node transmits at most once per round and no
  /// simulation approaches 2^32 rounds, so the per-trial footprint stays
  /// 4 bytes/node even at n = 10^6.
  [[nodiscard]] const std::vector<std::uint32_t>& energy() const {
    return tx_count_;
  }
  [[nodiscard]] std::int64_t max_energy() const;

  /// Resizes this network's shard team: `threads >= 2` spawns (or reshapes)
  /// a team of that many walkers (capped at the block count), `threads <= 1`
  /// tears it down and walks the graph in place. An adjacency below the
  /// volume floor (`set_min_parallel_volume`) gets no team. Each change
  /// re-slices the adjacency from the graph. The process policy applies
  /// this automatically at construction; call it directly to override per
  /// network (tests do). No-op when a remote walk adopted this network.
  void enable_intra_trial(unsigned threads);
  /// Current team size (1 = serial row walks).
  [[nodiscard]] unsigned intra_trial_threads() const;
  /// Per-round volume floor below which a team, if any, is bypassed; the
  /// next `enable_intra_trial` builds no team for an adjacency below it.
  void set_min_parallel_volume(std::size_t v) {
    walker_.set_min_parallel_volume(v);
  }

  /// Executes one synchronous round: every node in `txs` transmits its
  /// packet, everyone else listens. `on_rx` is invoked for every listener
  /// that observes a message or (in the CD model) a collision, in the
  /// canonical block order described above. Listeners that observe silence
  /// get no callback (silence carries no information in the no-CD model, and
  /// in the CD model protocols in this library never act on it
  /// round-by-round; they act on its absence, which they infer from their
  /// own state).
  template <class OnRx>
  void step(const round_buffer& txs, OnRx&& on_rx) {
    prepare_round(txs);
    // Resolve observations for touched listeners, block by block. The walk
    // (local or remote, on one thread or many) has left every touched
    // listener's packed hit word — transmitting-neighbor count in the high
    // half, index of the last transmitter heard in the low half — in the
    // walker's round state.
    std::uint64_t* hits = walker_.hits();
    for (touch_list& touched : walker_.lists()) {
      for (node_id v : touched) {
        const std::uint64_t hs = hits[v];
        if (!is_transmitting_[v]) {
          if ((hs >> 32) == 1) {
            if (model_.erasure_prob > 0.0 &&
                erasure_rng_.bernoulli(model_.erasure_prob)) {
              stats_.erasures += 1;  // decoding failed; observed as silence
            } else {
              const tx_ref& t = txs[hs & 0xffffffffULL];
              stats_.deliveries += 1;
              on_rx(reception{v, observation::message, t.pkt, t.from});
            }
          } else if (model_.collision_detection) {
            stats_.collisions_observed += 1;
            on_rx(reception{v, observation::collision, nullptr, no_node});
          }
          // Without CD, >=2 transmitters is indistinguishable from silence.
        }
        hits[v] = 0;
      }
      touched.clear();
    }
    for (std::size_t i = 0; i < txs.size(); ++i)
      is_transmitting_[txs[i].from] = 0;
  }

  /// Fast-forwards `idle_rounds` rounds in which no node transmits, in O(1).
  /// Observably identical to calling `step({}, on_rx)` that many times: an
  /// empty round has no transmissions, no receptions and no erasure-RNG
  /// draws, so only the round counter moves.
  void advance(round_t idle_rounds);

 private:
  /// Validates and marks the transmitters, then tallies every listener's
  /// transmitting neighbors into the walker's round state — through the
  /// walker itself, or the adopted remote walk.
  void prepare_round(const round_buffer& txs);

  const graph::graph* g_;
  model model_;
  network_stats stats_;
  std::int64_t skipped_ = 0;
  rng erasure_rng_;
  std::size_t node_count_ = 0;
  std::vector<std::uint32_t> tx_count_;
  std::vector<char> is_transmitting_;      // per-round transmitter bitmap
  // This round's transmitter ids, in round_buffer order (the walker's input).
  std::vector<node_id> tx_ids_;
  unsigned borrowed_workers_ = 0;
  // Non-null when the process-wide remote-walk hook adopted this network:
  // stepped rounds route through it instead of the local walks, and the
  // walker holds no adjacency (the hook's ranks hold it).
  remote_walk* remote_ = nullptr;
  // Auto mode re-polls the worker budget between rounds: a big trial
  // constructed while the pool was busy grows its team as scenario workers
  // finish and return their slots (byte-identical results at any size).
  bool auto_shards_ = false;
  int auto_poll_ = 0;
  // Bound to all 32 blocks of the shard plan — a fixed partition of the
  // node-id space into contiguous listener ranges balanced by adjacency
  // volume, computed once and never dependent on the team size, which is
  // what makes reception order thread-count-invariant. Walks the graph in
  // place or holds one slice per team member, holds the per-round hit words
  // and per-block
  // first-touch lists (filled remotely in remote mode, where the walker
  // holds no adjacency and never walks) and owns the shard team.
  block_walker walker_;
  // flush_totals() high-water marks (what was already published).
  std::int64_t flushed_stepped_ = 0;
  std::int64_t flushed_skipped_ = 0;
};

}  // namespace rn::radio
