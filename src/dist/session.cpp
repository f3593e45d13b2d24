#include "dist/session.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common/check.h"
#include "core/params.h"
#include "dist/worker.h"
#include "radio/block_walk.h"

namespace rn::dist {

namespace {

constexpr unsigned kBlocks = core::kChannelContractBlocks;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)  // rn-lint: allow(R1) recovery/backoff wall time feeds the v6 sidecar, never results JSON
      .count();
}

}  // namespace

session::session(session_options opt)
    : opt_(std::move(opt)), plan_(fault_plan::parse(opt_.fault_plan)) {
  opt_.ranks = std::max(1u, std::min(opt_.ranks, kBlocks));
  // A dead worker must surface as a write error on its channel, not a
  // SIGPIPE kill of the coordinator.
  std::signal(SIGPIPE, SIG_IGN);
  ranks_.resize(opt_.ranks);
  for (unsigned r = 0; r < opt_.ranks; ++r) {
    ranks_[r].first_block = kBlocks * r / opt_.ranks;
    ranks_[r].last_block = kBlocks * (r + 1) / opt_.ranks;
    RN_REQUIRE(spawn_rank(r), "fork failed for dist worker rank");
  }
  rank_peak_rss_kb_.assign(opt_.ranks, 0);
  applied_.assign(kBlocks, 0);
}

session::~session() {
  uninstall();
  radio::set_remote_walk(nullptr);
  for (unsigned r = 0; r < ranks_.size(); ++r) {
    auto& rk = ranks_[r];
    if (rk.ch.open()) {
      try {
        rk.ch.set_deadline_ms(opt_.policy.round_deadline_ms);
        rk.ch.send(msg_type::shutdown, wire_writer{});
      } catch (const std::exception&) {
        // Already dead; reaped below either way.
      }
      rk.ch.close();
    }
    if (rk.pid > 0) {
      int status = 0;
      ::waitpid(rk.pid, &status, 0);
    }
  }
}

void session::install() {
  sim::set_trial_graph_hook(this);
  installed_ = true;
}

void session::uninstall() {
  if (installed_) {
    sim::set_trial_graph_hook(nullptr);
    installed_ = false;
  }
}

bool session::spawn_rank(unsigned r) {
  auto [coord_end, worker_end] = make_channel_pair();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Child: drop every coordinator-side fd (this rank's replaced channel is
    // already closed; the others must not leak into the worker, or a dead
    // coordinator would never produce EOF on them).
    coord_end.close();
    for (auto& other : ranks_) other.ch.close();
    if (opt_.worker_exec.empty()) {
      ::_exit(worker_main(worker_end.fd()));
    }
    const std::string fd_arg = std::to_string(worker_end.fd());
    ::execl(opt_.worker_exec.c_str(), opt_.worker_exec.c_str(),
            "--rn-worker-fd", fd_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; the coordinator sees EOF + status 127
  }
  ranks_[r].ch = std::move(coord_end);
  ranks_[r].pid = pid;
  return true;
  // worker_end closes here (parent side), leaving the child the only
  // holder — its EOF semantics depend on that.
}

void session::kill_rank(unsigned r) {
  auto& rk = ranks_[r];
  if (rk.ch.open()) {
    // Channels are replaced on respawn; fold their traffic into the session
    // totals before the counters vanish with the object.
    bytes_sent_closed_ += rk.ch.bytes_sent();
    bytes_received_closed_ += rk.ch.bytes_received();
    rk.ch.close();
  }
  rk.ready_pending = false;
  if (rk.pid > 0) {
    ::kill(rk.pid, SIGKILL);
    int status = 0;
    ::waitpid(rk.pid, &status, 0);
    rk.pid = -1;
  }
}

void session::send_setup(unsigned r) {
  // A ready still owed for the previous setup (a pass that degraded a rank,
  // or a setup that ended in a mismatch) would read as this setup's ack.
  await_ready(r);
  auto& rk = ranks_[r];
  rk.ch.set_deadline_ms(opt_.policy.setup_deadline_ms);
  const std::string text = trial_spec_.to_string();
  wire_writer setup;
  setup.u32(rk.first_block);
  setup.u32(rk.last_block);
  setup.u32(kBlocks);
  setup.u32(opt_.intra_trial_threads);
  setup.u64(trial_spec_.seed);
  setup.u32(static_cast<std::uint32_t>(text.size()));
  setup.raw(text.data(), text.size());
  for (const node_id bound : trial_plan_.bounds) setup.u32(bound);
  rk.ch.send(msg_type::setup, setup);
}

void session::recv_setup_ack(unsigned r) {
  auto& rk = ranks_[r];
  rk.ch.set_deadline_ms(opt_.policy.setup_deadline_ms);
  const msg_type got = rk.ch.recv(frame_);
  if (got != msg_type::setup_ack)
    throw wire_error(wire_errc::corrupt,
                     "dist rank " + std::to_string(r) +
                         " sent an out-of-protocol frame (expected "
                         "setup_ack)");
  // The rank fills on after its ack, whatever the check below finds.
  rk.ready_pending = true;
  wire_reader in(frame_);
  const std::uint64_t n = in.u64();
  const std::uint64_t owned_entries = in.u64();
  // A mismatch is NOT a rank failure — the spec replayed to a different
  // graph, so respawning cannot help. Let it escape as a plain contract
  // violation (fatal), past every recovery catch; trial_begin reads the
  // other ranks' acks before rethrowing it. The owned entry count is
  // the degree sum over the rank's listeners, which the shipped plan alone
  // does not pin down.
  const auto offsets = trial_graph_->offsets();
  const std::uint64_t want_entries =
      offsets[trial_plan_.bounds[rk.last_block]] -
      offsets[trial_plan_.bounds[rk.first_block]];
  RN_REQUIRE(n == trial_graph_->node_count() && owned_entries == want_entries,
             "dist rank rebuilt a different graph (node or entry count "
             "mismatch) — topology spec is not replay-deterministic");
}

void session::await_ready(unsigned r) {
  auto& rk = ranks_[r];
  if (!rk.ready_pending) return;
  rk.ch.set_deadline_ms(opt_.policy.setup_deadline_ms);
  if (rk.ch.recv(frame_) != msg_type::setup_ready)
    throw wire_error(wire_errc::corrupt,
                     "dist rank " + std::to_string(r) +
                         " sent an out-of-protocol frame (expected "
                         "setup_ready)");
  rk.ready_pending = false;
}

void session::resync_rank(unsigned r) {
  // Workers are round-stateless (every round's state is cleared before
  // its reply), so a fresh slice needs no history: setup is the whole
  // resync, and the caller resends the round in flight.
  send_setup(r);
  recv_setup_ack(r);
  await_ready(r);
}

bool session::respawn_rank(unsigned r, const char* why) {
  const auto t0 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) respawn latency feeds dist_recovery_wall_ms (sidecar counter only)
  auto& rk = ranks_[r];
  bool up = false;
  while (!up && rk.respawns_this_trial < opt_.policy.max_respawns) {
    const unsigned attempt = rk.respawns_this_trial++;
    ++restarts_;
    const unsigned backoff = backoff_delay_ms(opt_.policy, attempt);
    std::fprintf(stderr,
                 "[rn-dist] rank %u %s; respawn attempt %u/%u after %u ms\n",
                 r, why, attempt + 1, opt_.policy.max_respawns, backoff);
    kill_rank(r);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    if (!spawn_rank(r)) break;  // fork refused: treat the budget as spent
    try {
      resync_rank(r);
      up = true;
    } catch (const wire_error&) {
      // Next attempt (or exhaustion) — the budget strictly decreases.
    }
  }
  recovery_wall_ms_ += ms_since(t0);
  return up;
}

void session::degrade_rank(unsigned r) {
  auto& rk = ranks_[r];
  kill_rank(r);
  rk.state = rank_state::degraded;
  ++degraded_ranks_;
  reassigned_blocks_ += rk.last_block - rk.first_block;
  needs_reassign_ = true;
  std::fprintf(stderr,
               "[rn-dist] rank %u degraded (respawn budget %u exhausted); "
               "blocks [%u, %u) move to the survivors\n",
               r, opt_.policy.max_respawns, rk.first_block, rk.last_block);
}

void session::reassign_blocks() {
  // Retile the 32 blocks contiguously over the up ranks, in rank order —
  // the same tiling rule as construction, so a fleet that never lost a rank
  // is always a fixed point and fault-free runs never resync here.
  needs_reassign_ = false;
  std::vector<unsigned> up;
  for (unsigned r = 0; r < ranks_.size(); ++r) {
    auto& rk = ranks_[r];
    if (rk.state == rank_state::up)
      up.push_back(r);
    else
      rk.first_block = rk.last_block = 0;  // owns nothing
  }
  if (up.empty()) return;  // cover_missing carries the whole round locally
  const auto k = static_cast<unsigned>(up.size());
  std::vector<unsigned> changed;
  for (unsigned j = 0; j < k; ++j) {
    auto& rk = ranks_[up[j]];
    const unsigned nf = kBlocks * j / k;
    const unsigned nl = kBlocks * (j + 1) / k;
    if (nf != rk.first_block || nl != rk.last_block) changed.push_back(up[j]);
    rk.first_block = nf;
    rk.last_block = nl;
  }
  if (!trial_live_) return;  // trial_begin's setup pass syncs everyone
  for (const unsigned r : changed) {
    try {
      resync_rank(r);
    } catch (const wire_error&) {
      if (!respawn_rank(r, "failed during block reassignment"))
        degrade_rank(r);
    }
  }
  // A survivor dying during the retile shrinks the up set; go again (each
  // pass retires at least one rank, so this terminates).
  if (needs_reassign_) reassign_blocks();
}

void session::trial_begin(const graph::topology_spec& spec,
                          const graph::graph& g) {
  // Serialize trials across scenario-pool threads: the rank fleet runs one
  // trial at a time; everyone else queues here. Unlocked in trial_end on
  // the same thread (the trial hook scope guarantees the pairing).
  trial_mu_.lock();
  try {
    trial_spec_ = spec;
    trial_graph_ = &g;
    trial_plan_ = graph::compute_block_plan(g, kBlocks);
    trial_index_ = static_cast<std::uint32_t>(trials_);
    trial_live_ = true;
    round_index_ = 0;
    covers_.clear();
    for (auto& rk : ranks_) rk.respawns_this_trial = 0;

    // Revive ranks lost at a previous trial's teardown: a fresh process and
    // a fresh respawn budget. Failure to even fork degrades them for good.
    for (unsigned r = 0; r < ranks_.size(); ++r) {
      auto& rk = ranks_[r];
      if (rk.state != rank_state::down) continue;
      if (spawn_rank(r)) {
        rk.state = rank_state::up;
        ++restarts_;
      } else {
        degrade_rank(r);
      }
    }

    // Setup pass over the whole fleet, with recovery. Each iteration either
    // completes cleanly or degrades at least one rank (changing the tiling),
    // so the loop runs at most ranks + 1 times.
    for (;;) {
      if (needs_reassign_) {
        // Retile only — the passes below ship the new ranges to everyone.
        const bool was_live = trial_live_;
        trial_live_ = false;
        reassign_blocks();
        trial_live_ = was_live;
      }
      // 0 = pending, 1 = setup sent (ack outstanding), 2 = fully synced
      // (respawn_rank resyncs internally).
      std::vector<std::uint8_t> stage(ranks_.size(), 0);
      for (unsigned r = 0; r < ranks_.size(); ++r) {
        if (ranks_[r].state != rank_state::up) continue;
        try {
          send_setup(r);
          stage[r] = 1;
        } catch (const wire_error&) {
          if (respawn_rank(r, "failed at trial setup"))
            stage[r] = 2;
          else
            degrade_rank(r);
        }
      }
      // A contract error (a rank rebuilt another graph) is fatal, but only
      // after every outstanding ack is read: a stale ack would fail the
      // next trial_begin on this session. The readies that follow are read
      // by the next setup (send_setup). Without a mismatch the trial starts
      // here, while the ranks still fill: each rank's ready is read before
      // its first round frame, or at trial_end.
      std::exception_ptr mismatch;
      for (unsigned r = 0; r < ranks_.size(); ++r) {
        if (ranks_[r].state != rank_state::up || stage[r] != 1) continue;
        try {
          recv_setup_ack(r);
        } catch (const wire_error&) {
          if (!respawn_rank(r, "failed at trial setup"))
            degrade_rank(r);
        } catch (const contract_error&) {
          if (!mismatch) mismatch = std::current_exception();
        }
      }
      if (mismatch) std::rethrow_exception(mismatch);
      if (!needs_reassign_) break;
    }

    armed_.store(&g, std::memory_order_release);
    radio::set_remote_walk(this);
  } catch (...) {
    trial_live_ = false;
    trial_mu_.unlock();
    throw;
  }
}

void session::trial_end(const graph::graph& g) {
  try {
    RN_REQUIRE(armed_.load(std::memory_order_acquire) == &g,
               "dist trial_end for a graph that never began");
    radio::set_remote_walk(nullptr);
    armed_.store(nullptr, std::memory_order_release);
    // Teardown failures mark the rank down — no respawn mid-teardown (there
    // is nothing left to compute); the next trial_begin revives it.
    std::vector<std::uint8_t> sent(ranks_.size(), 0);
    for (unsigned r = 0; r < ranks_.size(); ++r) {
      auto& rk = ranks_[r];
      if (rk.state != rank_state::up) continue;
      rk.ch.set_deadline_ms(opt_.policy.setup_deadline_ms);
      try {
        rk.ch.send(msg_type::teardown, wire_writer{});
        sent[r] = 1;
      } catch (const wire_error&) {
        kill_rank(r);
        rk.state = rank_state::down;
      }
    }
    for (unsigned r = 0; r < ranks_.size(); ++r) {
      auto& rk = ranks_[r];
      if (rk.state != rank_state::up || sent[r] != 1) continue;
      try {
        await_ready(r);  // no round reached this rank
        const msg_type got = rk.ch.recv(frame_);
        if (got != msg_type::teardown_ack)
          throw wire_error(wire_errc::corrupt,
                           "dist rank " + std::to_string(r) +
                               " sent an out-of-protocol frame (expected "
                               "teardown_ack)");
        wire_reader in(frame_);
        rank_peak_rss_kb_[r] = std::max(rank_peak_rss_kb_[r],
                                        static_cast<std::int64_t>(in.u64()));
      } catch (const wire_error&) {
        kill_rank(r);
        rk.state = rank_state::down;
      }
    }
    ++trials_;
    trial_live_ = false;
    covers_.clear();
  } catch (...) {
    trial_live_ = false;
    trial_mu_.unlock();
    throw;
  }
  trial_mu_.unlock();
}

bool session::adopt(const graph::graph& g) {
  return armed_.load(std::memory_order_acquire) == &g;
}

void session::release(const graph::graph& g) {
  (void)g;  // nothing rank-side to undo: state is per trial, not per network
}

void session::send_round_frame(unsigned r, const fault_spec* fault) {
  auto& rk = ranks_[r];
  rk.ch.set_deadline_ms(opt_.policy.round_deadline_ms);
  wire_writer w;
  w.u8(static_cast<std::uint8_t>(fault ? fault->kind : fault_kind::none));
  w.u32(fault ? fault->arg_ms : 0);
  w.u32(static_cast<std::uint32_t>(current_txs_.size()));
  w.raw(current_txs_.data(), current_txs_.size() * 4);
  rk.ch.send(msg_type::round, w);
}

void session::collect_round(unsigned r, std::uint64_t* hit_state,
                            radio::touch_list* block_touched) {
  auto& rk = ranks_[r];
  rk.ch.set_deadline_ms(opt_.policy.round_deadline_ms);
  const msg_type got = rk.ch.recv(frame_);
  if (got != msg_type::round_results)
    throw wire_error(wire_errc::corrupt,
                     "dist rank " + std::to_string(r) +
                         " sent an out-of-protocol frame (expected "
                         "round_results)");
  // Validate the whole frame before applying any of it: a frame that dies
  // halfway through validation has touched nothing, so the respawned rank's
  // resend (or a local cover) can apply the same blocks with no trace of
  // the failed attempt.
  struct block_ref {
    std::uint32_t b = 0;
    std::uint32_t count = 0;
    const std::uint8_t* ids = nullptr;
    const std::uint8_t* words = nullptr;
  };
  std::vector<block_ref> refs;
  refs.reserve(rk.last_block - rk.first_block);
  try {
    wire_reader in(frame_);
    unsigned expect_block = rk.first_block;
    while (in.remaining() > 0) {
      block_ref ref;
      ref.b = in.u32();
      ref.count = in.u32();
      if (ref.b != expect_block || ref.b >= rk.last_block)
        throw wire_error(wire_errc::corrupt,
                         "dist rank returned blocks out of order");
      ref.ids = in.raw(std::size_t{ref.count} * 4);
      ref.words = in.raw(std::size_t{ref.count} * 8);
      refs.push_back(ref);
      ++expect_block;
    }
    if (expect_block != rk.last_block)
      throw wire_error(wire_errc::corrupt,
                       "dist rank returned too few blocks");
  } catch (const wire_error&) {
    throw;
  } catch (const contract_error& e) {
    // wire_reader truncation inside a well-framed payload: same category as
    // any other corrupt frame — recoverable by respawn, not fatal.
    throw wire_error(wire_errc::corrupt, e.what());
  }

  const auto t0 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) merge wall time feeds dist_merge_wall_ms (sidecar counter only)
  for (const auto& ref : refs) {
    if (applied_[ref.b]) continue;  // recovery already covered it
    radio::touch_list& touched = block_touched[ref.b];
    const auto* ids = reinterpret_cast<const node_id*>(ref.ids);
    for (std::uint32_t k = 0; k < ref.count; ++k) {
      const node_id v = ids[k];
      touched.push(v);
      std::memcpy(&hit_state[v], ref.words + std::size_t{k} * 8, 8);
    }
    applied_[ref.b] = 1;
  }
  merge_wall_ms_ += ms_since(t0);
}

void session::recover_round(unsigned r, std::uint64_t* hit_state,
                            radio::touch_list* block_touched) {
  for (;;) {
    if (!respawn_rank(r, "failed mid-round")) {
      degrade_rank(r);
      return;  // cover_missing picks up its unapplied blocks this round
    }
    if (rank_done(ranks_[r])) return;  // everything already applied
    try {
      send_round_frame(r, nullptr);  // resend; faults never replay
      collect_round(r, hit_state, block_touched);
      return;
    } catch (const wire_error&) {
      // Fell over again — loop; the respawn budget strictly decreases.
    }
  }
}

bool session::rank_done(const rank_proc& rk) const {
  for (unsigned b = rk.first_block; b < rk.last_block; ++b)
    if (!applied_[b]) return false;
  return true;
}

void session::cover_missing(std::uint64_t* hit_state,
                            radio::touch_list* block_touched) {
  unsigned b = 0;
  while (b < kBlocks) {
    if (applied_[b]) {
      ++b;
      continue;
    }
    unsigned e = b;
    while (e < kBlocks && !applied_[e]) ++e;
    const graph::graph* g = armed_.load(std::memory_order_acquire);
    RN_REQUIRE(g != nullptr,
               "dist local cover requested without an armed trial graph");
    const auto t0 = std::chrono::steady_clock::now();  // rn-lint: allow(R1) local-cover recovery timing feeds the v6 sidecar, never results JSON
    radio::block_walker* cov = nullptr;
    for (const auto& c : covers_)
      if (c->first_block() == b && c->last_block() == e) cov = c.get();
    if (cov == nullptr) {
      cov = covers_.emplace_back(std::make_unique<radio::block_walker>()).get();
      cov->bind(trial_plan_.bounds, b, e);
      // The trial graph outlives every cover (trial_end drops them).
      cov->load(g->csr(), 1);
    }
    cov->walk(current_txs_);
    for (unsigned blk = b; blk < e; ++blk) {
      radio::touch_list& touched = block_touched[blk];
      for (const node_id v : cov->touched(blk)) {
        touched.push(v);
        hit_state[v] = cov->hit_word(v);
      }
      applied_[blk] = 1;
    }
    cov->clear_round();
    recovery_wall_ms_ += ms_since(t0);
    b = e;
  }
}

void session::walk_round(const radio::round_buffer& txs,
                         std::uint64_t* hit_state,
                         radio::touch_list* block_touched) {
  // An empty round touches nothing — identical to the serial walk — so it
  // never crosses the wire (fast-forwarded protocols still advance() past
  // idle rounds before this is reached; this covers stepped-but-empty).
  if (txs.empty()) return;

  // Round boundary: fold any degradation from the previous round into the
  // tiling before new work ships.
  if (needs_reassign_) reassign_blocks();

  current_txs_.resize(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) current_txs_[i] = txs[i].from;
  std::fill(applied_.begin(), applied_.end(), std::uint8_t{0});

  // Write every request before blocking on any reply: ranks work in
  // parallel, and a dead rank turns the read below into a structured
  // wire_error (EOF or deadline), never a hang.
  for (unsigned r = 0; r < ranks_.size(); ++r) {
    auto& rk = ranks_[r];
    if (rk.state != rank_state::up || rk.first_block == rk.last_block)
      continue;
    const fault_spec* fault = plan_.take(r, trial_index_, round_index_);
    try {
      // The rank's first round of the trial waits for its fill under the
      // setup deadline; its results below wait under the round deadline.
      await_ready(r);
      send_round_frame(r, fault);
    } catch (const wire_error&) {
      recover_round(r, hit_state, block_touched);
    }
  }
  for (unsigned r = 0; r < ranks_.size(); ++r) {
    auto& rk = ranks_[r];
    if (rk.state != rank_state::up || rank_done(rk)) continue;
    try {
      collect_round(r, hit_state, block_touched);
    } catch (const wire_error&) {
      recover_round(r, hit_state, block_touched);
    }
  }
  // Whatever no surviving rank owns (degraded mid-round or earlier) is
  // walked locally; a healthy fleet leaves nothing and this is a no-op.
  cover_missing(hit_state, block_touched);

  ++round_index_;
  ++rounds_;
}

session_totals session::totals() const {
  session_totals t;
  t.peak_rss_kb_per_rank = rank_peak_rss_kb_;
  t.bytes_sent = bytes_sent_closed_;
  t.bytes_received = bytes_received_closed_;
  for (const auto& rk : ranks_) {
    t.bytes_sent += rk.ch.bytes_sent();
    t.bytes_received += rk.ch.bytes_received();
  }
  t.merge_wall_ms = merge_wall_ms_;
  t.trials = trials_;
  t.rounds = rounds_;
  t.rank_restarts = restarts_;
  t.reassigned_blocks = reassigned_blocks_;
  t.degraded_ranks = degraded_ranks_;
  t.recovery_wall_ms = recovery_wall_ms_;
  return t;
}

}  // namespace rn::dist
