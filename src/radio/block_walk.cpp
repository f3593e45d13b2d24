#include "radio/block_walk.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/check.h"

namespace rn::radio {

namespace {

/// Team slots the process-wide busy counters can hold: a team never
/// outgrows the 32-block plan it claims blocks from.
constexpr unsigned kMaxTeam = 32;

std::atomic<std::int64_t> g_parallel_rounds{0};
std::atomic<std::int64_t> g_shard_busy_ns[kMaxTeam]{};
std::atomic<unsigned> g_max_team{0};

/// cpuid probe for the best kernel tier this build carries. The compiled-in
/// guards and the runtime checks are independent: a binary built with the
/// AVX-512 TU still runs the scalar (or AVX2) walk on older hardware.
simd_level probe_simd_level() {
  simd_level best = simd_level::scalar;
#if defined(RN_HAVE_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) best = simd_level::avx2;
#endif
#if defined(RN_HAVE_SIMD_AVX512)
  if (best == simd_level::avx2 && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vl"))
    best = simd_level::avx512;
#endif
  return best;
}

simd_level clamp_to_detected(simd_level l) {
  return std::min(l, detected_simd_level());
}

/// Startup tier: the detected one, unless RN_SIMD asks for less (or, on a
/// machine whose CPU lacks the requested tier, effectively less — requests
/// are clamped, never trusted to exceed the probe).
simd_level initial_simd_level() {
  const char* e = std::getenv("RN_SIMD");
  if (e == nullptr || std::strcmp(e, "auto") == 0)
    return detected_simd_level();
  if (std::strcmp(e, "scalar") == 0 || std::strcmp(e, "off") == 0)
    return simd_level::scalar;
  if (std::strcmp(e, "avx2") == 0)
    return clamp_to_detected(simd_level::avx2);
  if (std::strcmp(e, "avx512") == 0)
    return clamp_to_detected(simd_level::avx512);
  return detected_simd_level();  // unrecognized value: behave like auto
}

std::atomic<std::uint8_t>& active_simd_storage() {
  static std::atomic<std::uint8_t> level{
      static_cast<std::uint8_t>(initial_simd_level())};
  return level;
}

/// The scalar tier: one packed-word update per visited listener.
void scalar_segment(const node_id* adj, std::uint64_t* hits,
                    std::uint32_t begin, std::uint32_t end, std::uint32_t tx,
                    const detail::touch_route& route) {
  for (std::uint32_t a = begin; a < end; ++a) {
    const node_id v = adj[a];
    const std::uint64_t hs = hits[v];
    if (hs == 0) route.push(v);
    hits[v] = ((hs + (1ULL << 32)) & 0xffffffff00000000ULL) | tx;
  }
}

/// Segment kernel for an active (hence detected, hence built-in) tier.
detail::segment_fn segment_for([[maybe_unused]] simd_level l) {
#if defined(RN_HAVE_SIMD_AVX512)
  if (l == simd_level::avx512) return detail::avx512_segment();
#endif
#if defined(RN_HAVE_SIMD_AVX2)
  if (l == simd_level::avx2) return detail::avx2_segment();
#endif
  return &scalar_segment;
}

}  // namespace

const char* to_string(simd_level l) {
  switch (l) {
    case simd_level::avx512:
      return "avx512";
    case simd_level::avx2:
      return "avx2";
    default:
      return "scalar";
  }
}

simd_level detected_simd_level() {
  static const simd_level level = probe_simd_level();
  return level;
}

simd_level active_simd_level() {
  return static_cast<simd_level>(
      active_simd_storage().load(std::memory_order_relaxed));
}

void set_simd_level(simd_level l) {
  active_simd_storage().store(
      static_cast<std::uint8_t>(clamp_to_detected(l)),
      std::memory_order_relaxed);
}

/// The shard team: `members - 1` persistent helper threads plus the calling
/// thread, woken per walk by a generation counter. Members claim single
/// blocks of the owned range dynamically and walk every transmitter's slice
/// of each; a block's hit words and touch list are written only by the
/// member that claimed it. Dynamic claiming balances skewed rounds and
/// cannot perturb results: the partition and the per-block walk order are
/// claim-independent. One barrier per walk — the caller waits for the last
/// block. Counters go straight to the process-wide totals.
class block_walker::team {
 public:
  team(block_walker* w, unsigned members) : w_(w), members_(members) {
    unsigned seen = g_max_team.load(std::memory_order_relaxed);
    while (seen < members_ &&
           !g_max_team.compare_exchange_weak(seen, members_)) {
    }
    threads_.reserve(members_ - 1);
    for (unsigned s = 1; s < members_; ++s)
      threads_.emplace_back([this, s] { worker_main(s); });
  }

  ~team() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  [[nodiscard]] unsigned members() const { return members_; }

  /// Walks every owned block; returns when the last one is done.
  void run_round() {
    next_block_.store(w_->first_, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_ = members_;
      ++round_gen_;
    }
    start_cv_.notify_all();
    participate(0);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return running_ == 0; });
    }
    g_parallel_rounds.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  void worker_main(unsigned slot) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return stop_ || round_gen_ != seen; });
        if (stop_) return;
        seen = round_gen_;
      }
      participate(slot);
    }
  }

  void participate(unsigned slot) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();  // rn-lint: allow(R1) shard busy_ns feeds the timing sidecar, never results JSON
    for (;;) {
      const unsigned b = next_block_.fetch_add(1, std::memory_order_relaxed);
      if (b >= w_->last_) break;
      w_->walk_range(b, b + 1);
    }
    g_shard_busy_ns[slot].fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)  // rn-lint: allow(R1) shard busy_ns feeds the timing sidecar, never results JSON
            .count(),
        std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }

  block_walker* w_;
  const unsigned members_;
  std::vector<std::thread> threads_;
  std::atomic<unsigned> next_block_{0};
  std::mutex mu_;
  std::condition_variable start_cv_, done_cv_;
  std::uint64_t round_gen_ = 0;
  unsigned running_ = 0;
  bool stop_ = false;
};

block_walker::block_walker() = default;

block_walker::~block_walker() = default;

void block_walker::bind(const std::uint32_t* row_start, const node_id* adj,
                        std::span<const node_id> bounds, unsigned first,
                        unsigned last) {
  RN_REQUIRE(first < last && last < bounds.size(),
             "block walker needs a non-empty block range inside the plan");
  RN_REQUIRE(last - first <= kMaxTeam, "block walker owns at most 32 blocks");
  row_start_ = row_start;
  adj_ = adj;
  bounds_ = bounds.data();
  first_ = first;
  last_ = last;
  hits_.assign(bounds.back(), 0);
  lists_.resize(last - first);
  const node_id base = bounds[first];
  owner_.assign(bounds[last] - base, 0);
  for (unsigned b = first; b < last; ++b) {
    lists_[b - first].reset(bounds[b + 1] - bounds[b]);
    std::fill(owner_.begin() + (bounds[b] - base),
              owner_.begin() + (bounds[b + 1] - base),
              static_cast<std::uint8_t>(b - first));
  }
  route_ = {lists_.data(), owner_.data(), base};
  if (team_ && team_->members() > last - first) set_team(last - first);
}

void block_walker::set_team(unsigned members) {
  members = std::min(members, last_ - first_);
  if (team_ && team_->members() == members) return;
  team_.reset();
  if (members >= 2) team_ = std::make_unique<team>(this, members);
}

unsigned block_walker::team_size() const {
  return team_ ? team_->members() : 1;
}

void block_walker::clear_round() {
  for (auto& list : lists_) {
    for (const node_id v : list) hits_[v] = 0;
    list.clear();
  }
}

simd_level block_walker::walk(std::span<const node_id> tx_ids) {
  const simd_level level = active_simd_level();
  // Resolved per walk so flipping the process-wide tier affects live
  // walkers; every block of a round uses the same kernel.
  segment_ = segment_for(level);
  txs_ = tx_ids;
  bool parallel = false;
  if (team_ && !tx_ids.empty()) {
    std::size_t volume = 0;
    for (const node_id u : tx_ids) volume += row_start_[u + 1] - row_start_[u];
    parallel = volume >= min_parallel_volume_;
  }
  if (parallel) {
    team_->run_round();
  } else {
    walk_range(first_, last_);
  }
  return level;
}

void block_walker::walk_range(unsigned b0, unsigned b1) {
  // The rows hold only owned listeners, so a walk of the whole owned range
  // takes every row as is. A narrower claim slices each row with an O(1)
  // test against its first and last neighbor, then a binary search (rows
  // are ascending, blocks are contiguous id ranges).
  const bool whole = b0 == first_ && b1 == last_;
  const node_id lo = bounds_[b0];
  const node_id hi = bounds_[b1];
  const node_id* adj = adj_;
  std::uint64_t* hits = hits_.data();
  const auto m = static_cast<std::uint32_t>(txs_.size());
  for (std::uint32_t i = 0; i < m; ++i) {
    const node_id u = txs_[i];
    std::uint32_t begin = row_start_[u];
    std::uint32_t end = row_start_[u + 1];
    if (!whole) {
      if (begin == end || adj[begin] >= hi || adj[end - 1] < lo) continue;
      if (adj[begin] < lo)
        begin = static_cast<std::uint32_t>(
            std::lower_bound(adj + begin, adj + end, lo) - adj);
      if (adj[end - 1] >= hi)
        end = static_cast<std::uint32_t>(
            std::lower_bound(adj + begin, adj + end, hi) - adj);
    }
    segment_(adj, hits, begin, end, i, route_);
  }
}

shard_totals block_walker::process_totals() {
  shard_totals t;
  t.parallel_rounds = g_parallel_rounds.load(std::memory_order_relaxed);
  const unsigned slots =
      std::min(g_max_team.load(std::memory_order_relaxed), kMaxTeam);
  t.busy_ns.reserve(slots);
  for (unsigned s = 0; s < slots; ++s)
    t.busy_ns.push_back(g_shard_busy_ns[s].load(std::memory_order_relaxed));
  return t;
}

}  // namespace rn::radio
