// Coordinator side of the distributed backend: rank supervision, the
// per-trial setup/teardown protocol, and the per-round walk exchange.
//
// A session spawns R worker processes at construction (fork-only for tests,
// fork+exec of a launcher binary for tools/rn_dist) and implements both
// process-wide hooks the rest of the stack exposes:
//
//   sim::trial_graph_hook — sees every declarative trial's topology spec and
//   graph right after build_topology: it ships the spec (with its resolved
//   seed) and the graph's block plan to every rank, waits until every rank
//   has counted its owned entries (setup_ack), checks each rank's node and
//   owned entry counts against the graph (a mismatch is a contract error:
//   the spec does not replay), and arms the radio remote-walk hook for that
//   trial. The ranks finish their fills while the coordinator plans the
//   trial; a rank's setup_ready is read before its first round frame, after
//   every resync, before its next setup, or at trial_end when no round ran.
//   Trials are serialized on an internal mutex, so scenario-pool threads
//   compose with a session — they just take turns on the rank fleet.
//
//   radio::remote_walk — adopted by networks whose topology is the armed
//   trial graph (pointer identity). The coordinator's network then walks
//   nothing itself; each stepped round sends the transmitter list to every
//   rank and applies the returned per-block touch lists in ascending block
//   order, reproducing the serial walk's dispatch state exactly.
//
// Failure behavior (the supervision layer, see dist/supervisor.h): every
// frame exchanged while a trial is live carries a per-phase deadline, so a
// crashed rank (EOF) and a wedged rank (timeout) are both detected within a
// bound, never a hang. The session then respawns the rank with bounded
// exponential backoff — rebuilding its adjacency from the topology spec,
// then resending the round in flight (workers keep no
// state between rounds) — or, once the respawn budget is exhausted, retires
// the rank: its blocks are covered locally for the in-flight round (the
// coordinator holds the trial graph) and reassigned to the surviving ranks
// at the next round boundary. Per-rank result frames are validated before
// any of their blocks are applied, application is tracked per block, and
// reception dispatch always walks blocks in ascending canonical order — so
// results JSON is byte-identical to the fault-free (and single-process) run
// through every recovery path. Faults are injectable on demand via
// session_options::fault_plan (dist/fault.h).
//
// Results are byte-identical to single-process runs at any rank count; the
// session only ever shows up in the timing sidecar (v6 rank + recovery
// counters).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

#include "dist/fault.h"
#include "dist/supervisor.h"
#include "dist/wire.h"
#include "graph/partitioned.h"
#include "graph/topology.h"
#include "radio/network.h"
#include "sim/experiment.h"

namespace rn::dist {

struct session_options {
  /// Worker processes; clamped to [1, 32] (a rank owns >= 1 of the 32
  /// blocks). Every value yields byte-identical results.
  unsigned ranks = 2;
  /// Walk threads per rank (the intra-trial knob, applied worker-side in
  /// distributed mode). Byte-identical at every value.
  unsigned intra_trial_threads = 1;
  /// Non-empty: fork+exec this binary with "--rn-worker-fd N" per rank
  /// (tools/rn_dist passes /proc/self/exe). Empty: fork-only — the child
  /// runs worker_main in-process, which tests use; fork-only children must
  /// be spawned (and respawned) from a single-threaded driver.
  std::string worker_exec;
  /// Detection deadlines + respawn/backoff budget (dist/supervisor.h).
  supervise_policy policy;
  /// Deterministic fault plan (dist/fault.h grammar); parsed at
  /// construction, throws on malformed input. Empty = no faults.
  std::string fault_plan;
};

/// Cumulative rank-fleet counters for the v6 timing sidecar.
struct session_totals {
  std::vector<std::int64_t> peak_rss_kb_per_rank;  ///< max over trials
  std::uint64_t bytes_sent = 0;      ///< coordinator -> workers, framed
  std::uint64_t bytes_received = 0;  ///< workers -> coordinator, framed
  double merge_wall_ms = 0.0;  ///< receiving + applying block results
  std::uint64_t trials = 0;    ///< trials executed on the rank fleet
  std::uint64_t rounds = 0;    ///< stepped rounds shipped to the fleet
  // Recovery counters (dist/supervisor.h has the policy).
  std::uint64_t rank_restarts = 0;     ///< respawn attempts launched
  std::uint64_t reassigned_blocks = 0; ///< blocks moved off retired ranks
  std::uint64_t degraded_ranks = 0;    ///< ranks retired after exhaustion
  double recovery_wall_ms = 0.0;       ///< wall time inside recovery paths
};

class session : public radio::remote_walk, public sim::trial_graph_hook {
 public:
  explicit session(session_options opt);
  ~session() override;
  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// Registers this session as the process trial observer. The remote-walk
  /// hook arms and disarms per trial. Call once; the destructor (or
  /// uninstall) deregisters.
  void install();
  void uninstall();

  [[nodiscard]] unsigned ranks() const {
    return static_cast<unsigned>(ranks_.size());
  }
  [[nodiscard]] session_totals totals() const;

  // sim::trial_graph_hook — also directly callable by tests that build
  // their networks by hand instead of through make_trial: `spec` must
  // rebuild exactly the graph `g` in the workers, else trial_begin throws
  // contract_error on the first rank whose node or entry count disagrees.
  // trial_begin returns once every rank has counted its entries, not once
  // every rank has filled them.
  void trial_begin(const graph::topology_spec& spec,
                   const graph::graph& g) override;
  void trial_end(const graph::graph& g) override;

  // radio::remote_walk
  bool adopt(const graph::graph& g) override;
  void release(const graph::graph& g) override;
  void walk_round(const radio::round_buffer& txs, std::uint64_t* hit_state,
                  radio::touch_list* block_touched) override;

 private:
  /// Lifecycle of a rank slot. `up` speaks the protocol; `down` lost its
  /// process outside a trial (teardown failure) and is revived at the next
  /// trial_begin; `degraded` exhausted its respawn budget and is retired
  /// for the rest of the session (its blocks are reassigned).
  enum class rank_state : std::uint8_t { up, down, degraded };

  struct rank_proc {
    channel ch;
    pid_t pid = -1;
    unsigned first_block = 0;
    unsigned last_block = 0;
    rank_state state = rank_state::up;
    unsigned respawns_this_trial = 0;
    bool ready_pending = false;  ///< setup_ack read, setup_ready not yet
  };

  [[nodiscard]] bool spawn_rank(unsigned r);
  void kill_rank(unsigned r);
  /// setup, setup_ack and setup_ready for the rank's current block range
  /// (workers are round-stateless); throws wire_error on any failure.
  void resync_rank(unsigned r);
  /// Bounded-backoff respawn loop ending in a resynced rank (true) or an
  /// exhausted budget (false — caller degrades).
  [[nodiscard]] bool respawn_rank(unsigned r, const char* why);
  void degrade_rank(unsigned r);
  /// Round-boundary reassignment: retile the 32 blocks over up ranks and
  /// resync every survivor whose range changed.
  void reassign_blocks();
  void send_setup(unsigned r);
  void recv_setup_ack(unsigned r);
  /// Reads the rank's setup_ready if one is pending, under the setup
  /// deadline: a fill that scales with n is never mistaken for a wedge.
  void await_ready(unsigned r);
  void send_round_frame(unsigned r, const fault_spec* fault);
  /// recv + validate + apply one rank's round results. Validation precedes
  /// any application (per-rank frames apply atomically) and already-applied
  /// blocks are skipped, so recovery can never double-apply.
  void collect_round(unsigned r, std::uint64_t* hit_state,
                     radio::touch_list* block_touched);
  /// Full mid-round recovery of rank r: respawn/resync (+ resend the
  /// current round) or degrade. Never throws for rank death — only for
  /// genuine contract violations (e.g. a respawned rank rebuilding a
  /// different graph).
  void recover_round(unsigned r, std::uint64_t* hit_state,
                     radio::touch_list* block_touched);
  /// Walks every still-unapplied block range locally on the coordinator's
  /// resident trial graph (degraded fleet paths).
  void cover_missing(std::uint64_t* hit_state,
                     radio::touch_list* block_touched);
  [[nodiscard]] bool rank_done(const rank_proc& r) const;

  session_options opt_;
  fault_plan plan_;
  std::vector<rank_proc> ranks_;
  bool installed_ = false;

  std::mutex trial_mu_;  ///< held from trial_begin to trial_end
  // Atomic because pool threads running *local* trials may construct
  // networks (and hence call adopt) while the distributed trial is armed.
  std::atomic<const graph::graph*> armed_{nullptr};

  // Per-trial state (valid between trial_begin and trial_end).
  graph::topology_spec trial_spec_;
  const graph::graph* trial_graph_ = nullptr;
  graph::block_plan trial_plan_;  ///< shipped in every setup frame
  bool trial_live_ = false;
  std::uint32_t trial_index_ = 0;  ///< 0-based once the first trial begins
  std::uint32_t round_index_ = 0;  ///< stepped rounds within the trial
  std::vector<node_id> current_txs_;
  std::vector<std::uint8_t> applied_;  ///< per block, current round
  bool needs_reassign_ = false;
  /// Coordinator-side walkers over the resident trial graph, one per
  /// contiguous orphaned block range — the degraded-fleet fallback. Built
  /// lazily and kept for the rest of the trial; each walks exactly the
  /// rank's rows under the same canonical plan, so locally covered blocks
  /// are byte-identical to remotely computed ones. Always team size 1: a
  /// fork-only coordinator may fork respawned ranks later, so no walk
  /// thread may outlive a walk here.
  std::vector<std::unique_ptr<radio::block_walker>> covers_;

  std::vector<std::int64_t> rank_peak_rss_kb_;
  double merge_wall_ms_ = 0.0;
  std::uint64_t trials_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t reassigned_blocks_ = 0;
  std::uint64_t degraded_ranks_ = 0;
  double recovery_wall_ms_ = 0.0;
  std::uint64_t bytes_sent_closed_ = 0;      ///< counters of replaced channels
  std::uint64_t bytes_received_closed_ = 0;
  std::vector<std::uint8_t> frame_;  ///< recv scratch (coordinator thread)
};

}  // namespace rn::dist
