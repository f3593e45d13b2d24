#include "radio/network.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "graph/partitioned.h"

namespace rn::radio {

namespace {

std::atomic<std::int64_t> g_stepped{0};
std::atomic<std::int64_t> g_skipped{0};

std::mutex g_policy_mu;
intra_trial_policy g_policy;

std::mutex g_budget_mu;
bool g_budget_set = false;
unsigned g_budget_total = 0;
unsigned g_budget_used = 0;

unsigned budget_total_locked() {
  if (!g_budget_set) {
    const unsigned hw = std::thread::hardware_concurrency();
    g_budget_total = hw == 0 ? 1 : hw;
    g_budget_set = true;
  }
  return g_budget_total;
}

}  // namespace

void set_intra_trial_policy(const intra_trial_policy& p) {
  std::lock_guard<std::mutex> lock(g_policy_mu);
  g_policy = p;
}

intra_trial_policy get_intra_trial_policy() {
  std::lock_guard<std::mutex> lock(g_policy_mu);
  return g_policy;
}

void set_worker_budget(unsigned total) {
  std::lock_guard<std::mutex> lock(g_budget_mu);
  g_budget_set = true;
  const unsigned hw = std::thread::hardware_concurrency();
  g_budget_total = total != 0 ? total : (hw == 0 ? 1 : hw);
}

unsigned worker_budget() {
  std::lock_guard<std::mutex> lock(g_budget_mu);
  return budget_total_locked();
}

unsigned borrow_workers(unsigned want) {
  std::lock_guard<std::mutex> lock(g_budget_mu);
  const unsigned total = budget_total_locked();
  const unsigned avail = total > g_budget_used ? total - g_budget_used : 0;
  const unsigned got = std::min(want, avail);
  g_budget_used += got;
  return got;
}

void return_workers(unsigned n) {
  std::lock_guard<std::mutex> lock(g_budget_mu);
  g_budget_used -= std::min(n, g_budget_used);
}

namespace {
std::atomic<remote_walk*> g_remote_walk{nullptr};
}  // namespace

void set_remote_walk(remote_walk* hook) {
  g_remote_walk.store(hook, std::memory_order_release);
}

remote_walk* get_remote_walk() {
  return g_remote_walk.load(std::memory_order_acquire);
}

network::network(const graph::graph& g, model m)
    : g_(&g), model_(m), erasure_rng_(m.erasure_seed) {
  RN_REQUIRE(m.erasure_prob >= 0.0 && m.erasure_prob < 1.0,
             "erasure probability must be in [0, 1)");
  node_count_ = g.node_count();
  // A multi-process backend may claim this network's walks: its ranks hold
  // the adjacency, so the walker gets none and no team in remote mode.
  if (remote_walk* hook = get_remote_walk();
      hook != nullptr && hook->adopt(g))
    remote_ = hook;
  is_transmitting_.assign(node_count_, 0);
  tx_count_.assign(node_count_, 0);

  // The reusable shard plan: kPlanBlocks contiguous listener ranges with
  // roughly equal adjacency volume (a listener's walk cost is its degree).
  // Recycled across every round; independent of the team size by design.
  // Shared with the distributed backend (graph/partitioned.h) so every
  // process derives the identical partition from the degree sequence alone.
  walker_.bind(graph::compute_block_plan(g, kPlanBlocks).bounds, 0,
               kPlanBlocks);
  if (remote_ != nullptr) return;  // walks are external; no adjacency

  const intra_trial_policy pol = get_intra_trial_policy();
  walker_.set_min_parallel_volume(pol.min_parallel_volume);
  unsigned team = 1;
  if (pol.threads >= 2) {
    team = pol.threads;
  } else if (pol.threads == 0 && node_count_ >= pol.auto_threshold) {
    // Auto mode: borrow whatever capacity the trial pool is not using right
    // now, and keep re-polling between rounds (prepare_round) — scenario
    // workers return their slots as their queue drains, so a big trial
    // constructed while the pool was still busy grows its team and
    // inherits the machine moments later.
    auto_shards_ = true;
    borrowed_workers_ = borrow_workers(kPlanBlocks - 1);
    team = borrowed_workers_ + 1;
  }
  // A team of one walks the graph's own CSR in place: every row lies inside
  // the 32 blocks.
  walker_.load(g.csr(), team);
}

network::~network() {
  flush_totals();
  if (borrowed_workers_ > 0) return_workers(borrowed_workers_);
  if (remote_ != nullptr) remote_->release(*g_);
}

void network::flush_totals() {
  const std::int64_t stepped = stats_.rounds - skipped_;
  g_stepped.fetch_add(stepped - flushed_stepped_, std::memory_order_relaxed);
  flushed_stepped_ = stepped;
  g_skipped.fetch_add(skipped_ - flushed_skipped_, std::memory_order_relaxed);
  flushed_skipped_ = skipped_;
}

engine_totals network::process_totals() {
  return {g_stepped.load(std::memory_order_relaxed),
          g_skipped.load(std::memory_order_relaxed)};
}

shard_totals network::process_shard_totals() {
  return block_walker::process_totals();
}

void network::enable_intra_trial(unsigned threads) {
  if (remote_ == nullptr &&
      std::clamp(threads, 1u, kPlanBlocks) != walker_.team_size())
    walker_.load(g_->csr(), threads);
}

unsigned network::intra_trial_threads() const { return walker_.team_size(); }

std::int64_t network::max_energy() const {
  std::int64_t best = 0;
  for (std::uint32_t e : tx_count_)
    best = std::max(best, static_cast<std::int64_t>(e));
  return best;
}

void network::advance(round_t idle_rounds) {
  RN_REQUIRE(idle_rounds >= 0, "cannot advance by a negative round count");
  stats_.rounds += idle_rounds;
  skipped_ += idle_rounds;
}

void network::prepare_round(const round_buffer& txs) {
  stats_.rounds += 1;
  const std::size_t m = txs.size();
  stats_.transmissions += static_cast<std::int64_t>(m);

  // Auto-mode growth: every 64 stepped rounds, try to borrow capacity that
  // scenario workers have returned since construction. Team size is purely
  // an execution detail, so growing mid-run cannot perturb results.
  if (auto_shards_ && --auto_poll_ <= 0) {
    auto_poll_ = 64;
    if (borrowed_workers_ + 1 < kPlanBlocks) {
      const unsigned extra =
          borrow_workers(kPlanBlocks - 1 - borrowed_workers_);
      if (extra > 0) {
        borrowed_workers_ += extra;
        enable_intra_trial(borrowed_workers_ + 1);
      }
    }
  }

  // Mark transmitters; a node transmitting twice in one round is a runner
  // bug.
  tx_ids_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const node_id u = txs[i].from;
    RN_REQUIRE(u < node_count_, "transmitter out of range");
    RN_REQUIRE(!is_transmitting_[u], "node transmitted twice in a round");
    is_transmitting_[u] = 1;
    tx_count_[u] += 1;
    tx_ids_[i] = u;
  }

  if (remote_ != nullptr) {
    // The adopted backend must leave hit words and per-block touch lists
    // exactly as the local walk would; the dispatch in step() is shared.
    remote_->walk_round(txs, walker_.hits(), walker_.lists().data());
    return;
  }
  walker_.walk(tx_ids_);
}

}  // namespace rn::radio
