#include "radio/block_walk.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"

namespace rn::radio {

namespace {

/// Prefetch distances of the walk loop, in transmitters.
constexpr std::uint32_t kOffsetsAhead = 16;
constexpr std::uint32_t kHeadsAhead = 8;

std::atomic<std::int64_t> g_parallel_rounds{0};
std::atomic<std::int64_t> g_shard_busy_ns[kPlanBlocks]{};
std::atomic<unsigned> g_max_team{0};

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

simd_level active_simd_level() {
  static const simd_level level = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
      return simd_level::avx512;
    if (__builtin_cpu_supports("avx2")) return simd_level::avx2;
#endif
    return simd_level::scalar;
  }();
  return level;
}

/// The shard team: `members - 1` persistent helper threads plus the calling
/// thread, woken per job by a generation counter. A job runs once per
/// member slot, the caller taking slot 0, and the caller waits for the last
/// one: one barrier per job. Walks run member k over member slice k, every
/// transmitter's row in index order, so a block's hit words and touch list
/// are written only by the member that owns it.
class block_walker::team {
 public:
  using job = std::function<void(unsigned slot)>;

  explicit team(unsigned members) : members_(members) {
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

  /// Runs `j` on every slot; returns when the last one is done. `j` must
  /// not throw.
  void run(const job& j) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &j;
      running_ = members_;
      ++round_gen_;
    }
    start_cv_.notify_all();
    j(0);
    std::unique_lock<std::mutex> lock(mu_);
    if (--running_ != 0)
      done_cv_.wait(lock, [this] { return running_ == 0; });
  }

 private:
  void worker_main(unsigned slot) {
    std::uint64_t seen = 0;
    for (;;) {
      const job* j = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return stop_ || round_gen_ != seen; });
        if (stop_) return;
        seen = round_gen_;
        j = job_;
      }
      (*j)(slot);
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }

  const unsigned members_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_cv_, done_cv_;
  const job* job_ = nullptr;
  std::uint64_t round_gen_ = 0;
  unsigned running_ = 0;
  bool stop_ = false;
};

block_walker::block_walker() = default;

block_walker::~block_walker() = default;

void block_walker::bind(std::span<const node_id> bounds, unsigned first,
                        unsigned last) {
  RN_REQUIRE(first < last && last < bounds.size(),
             "block walker needs a non-empty block range inside the plan");
  RN_REQUIRE(last - first <= kPlanBlocks,
             "block walker owns at most 32 blocks");
  team_.reset();
  slices_.clear();
  owned_.clear();
  bounds_.assign(bounds.begin(), bounds.end());
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
}

bool block_walker::load(graph::csr_ref csr, unsigned members) {
  // Free the previous adjacency first: the next replaces it, never sits
  // beside it.
  team_.reset();
  slices_.clear();
  owned_.clear();
  const node_id n = bounds_.back();
  const node_id lo = bounds_[first_];
  const node_id hi = bounds_[last_];
  // Row u clipped to the owned blocks; rows are ascending, so only a row
  // that strays past an end of the owned range needs a search.
  const auto owned_run = [&](node_id u) {
    const node_id* p = csr.adj + csr.row_start[u];
    const node_id* q = csr.adj + csr.row_start[u + 1];
    if (p != q && *p < lo) p = std::lower_bound(p, q, lo);
    if (p != q && q[-1] >= hi) q = std::lower_bound(p, q, hi);
    return std::pair{p, q};
  };
  std::size_t volume = 0;
  bool inside = true;
  for (node_id u = 0; u < n; ++u) {
    const auto [p, q] = owned_run(u);
    const auto len = static_cast<std::uint32_t>(q - p);
    volume += len;
    inside = inside && len == csr.row_start[u + 1] - csr.row_start[u];
  }
  // Waking a team costs more than it saves on an adjacency below the floor,
  // whose rounds would never wake it either.
  members = volume < min_parallel_volume_
                ? 1
                : std::clamp(members, 1u, last_ - first_);
  if (members == 1 && inside) {
    slices_.assign(1, csr);
    return true;
  }
  owned_.resize(members);
  // The team joins the walker only once its slices are built.
  std::unique_ptr<team> crew;
  if (members >= 2) crew = std::make_unique<team>(members);
  const unsigned blocks = last_ - first_;
  const node_id* ends = bounds_.data() + first_ + 1;  // owned block ends
  std::array<std::uint8_t, kPlanBlocks> member_of{};
  for (unsigned j = 0; j < blocks; ++j)
    member_of[j] = static_cast<std::uint8_t>(j % members);
  // Calls f(member, begin, end) for each run of u's owned row inside one
  // block: the row is ascending, so the run of each block between the
  // blocks of its first and last neighbor is the prefix below the block's
  // end.
  const auto for_each_run = [&](node_id u, auto&& f) {
    auto [p, stop] = owned_run(u);
    if (p == stop) return;
    if (members == 1) {
      f(0u, p, stop);
      return;
    }
    unsigned j = owner_[*p - lo];
    const unsigned j_last = owner_[stop[-1] - lo];
    for (; j < j_last; ++j) {
      const node_id end = ends[j];
      std::uint32_t len = 0;  // branch-free: rows are short, runs shorter
      for (const node_id* x = p; x != stop; ++x) len += *x < end;
      f(unsigned{member_of[j]}, p, p + len);
      p += len;
    }
    f(unsigned{member_of[j_last]}, p, stop);
  };
  // Two passes over the rows, each split into one contiguous row range per
  // member: pass 1 writes every row's length in each slice to its row
  // offset, and after the prefix sums pass 2 copies the runs. A range's
  // rows are contiguous in every slice, so each member appends to its own
  // stretch of each.
  const auto row_range = [&](unsigned slot) {
    return std::pair{static_cast<node_id>(std::uint64_t{n} * slot / members),
                     static_cast<node_id>(std::uint64_t{n} * (slot + 1) /
                                          members)};
  };
  const auto run = [&](const team::job& job) {
    if (crew) {
      crew->run(job);
    } else {
      job(0);
    }
  };
  for (owned_csr& s : owned_) {
    s.row_start = std::make_unique_for_overwrite<std::uint32_t[]>(
        std::size_t{n} + 1);
    s.row_start[0] = 0;
  }
  run([&](unsigned slot) {
    const auto [u0, u1] = row_range(slot);
    // len[k][u]: row u's length in slice k.
    std::array<std::uint32_t*, kPlanBlocks> len{};
    for (unsigned k = 0; k < members; ++k)
      len[k] = owned_[k].row_start.get() + 1;
    for (node_id u = u0; u < u1; ++u) {
      for (unsigned k = 0; k < members; ++k) len[k][u] = 0;
      for_each_run(u, [&](unsigned k, const node_id* p, const node_id* q) {
        len[k][u] += static_cast<std::uint32_t>(q - p);
      });
    }
  });
  for (owned_csr& s : owned_) {
    std::uint32_t total = 0;  // at most the loaded CSR's 32-bit total
    for (node_id u = 1; u <= n; ++u) {
      total += s.row_start[u];
      s.row_start[u] = total;
    }
    s.adj = std::make_unique_for_overwrite<node_id[]>(total);
  }
  run([&](unsigned slot) {
    const auto [u0, u1] = row_range(slot);
    std::array<node_id*, kPlanBlocks> out{};
    for (unsigned k = 0; k < members; ++k)
      out[k] = owned_[k].adj.get() + owned_[k].row_start[u0];
    for (node_id u = u0; u < u1; ++u)
      for_each_run(u, [&](unsigned k, const node_id* p, const node_id* q) {
        out[k] = std::copy(p, q, out[k]);
      });
  });
  for (const owned_csr& s : owned_)
    slices_.push_back({s.row_start.get(), s.adj.get()});
  team_ = std::move(crew);
  return false;
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

bool block_walker::reaches_parallel_volume() const {
  std::size_t volume = 0;
  for (const node_id u : txs_) {
    if (volume >= min_parallel_volume_) return true;
    for (const graph::csr_ref& s : slices_)
      volume += s.row_start[u + 1] - s.row_start[u];
  }
  return volume >= min_parallel_volume_;
}

void block_walker::walk(std::span<const node_id> tx_ids) {
  txs_ = tx_ids;
  if (team_ && !tx_ids.empty() && reaches_parallel_volume()) {
    team_->run([this](unsigned slot) {
      using clock = std::chrono::steady_clock;
      const auto t0 = clock::now();  // rn-lint: allow(R1) shard busy_ns feeds the timing sidecar, never results JSON
      walk_slice(slices_[slot]);
      g_shard_busy_ns[slot].fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)  // rn-lint: allow(R1) shard busy_ns feeds the timing sidecar, never results JSON
              .count(),
          std::memory_order_relaxed);
    });
    g_parallel_rounds.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Below the floor the caller walks the member slices one after another:
    // each block still lives in one slice, walked in transmitter order.
    for (const graph::csr_ref& s : slices_) walk_slice(s);
  }
}

void block_walker::walk_slice(const graph::csr_ref& s) {
  // The walk is bound by dependent misses — transmitter id, then its row
  // offsets, then its row — so it fetches offsets kOffsetsAhead
  // transmitters ahead and row heads kHeadsAhead ahead (by then their
  // offsets have arrived). Rows only: prefetching hit words measured
  // slower.
  const std::uint32_t* row_start = s.row_start;
  const node_id* adj = s.adj;
  const node_id* tx = txs_.data();
  std::uint64_t* hits = hits_.data();
  const auto m = static_cast<std::uint32_t>(txs_.size());
  for (std::uint32_t i = 0; i < m; ++i) {
    if (i + kOffsetsAhead < m)
      __builtin_prefetch(row_start + tx[i + kOffsetsAhead]);
    if (i + kHeadsAhead < m)
      __builtin_prefetch(adj + row_start[tx[i + kHeadsAhead]]);
    const node_id u = tx[i];
    walk_row(adj, hits, row_start[u], row_start[u + 1], i, route_);
  }
}

void block_walker::walk_row(const node_id* adj, std::uint64_t* hits,
                            std::uint32_t begin, std::uint32_t end,
                            std::uint32_t tx, const touch_route& route) {
  for (std::uint32_t a = begin; a < end; ++a) {
    const node_id v = adj[a];
    const std::uint64_t hs = hits[v];
    if (hs == 0) route.push(v);
    hits[v] = ((hs + (1ULL << 32)) & 0xffffffff00000000ULL) | tx;
  }
}

shard_totals block_walker::process_totals() {
  shard_totals t;
  t.parallel_rounds = g_parallel_rounds.load(std::memory_order_relaxed);
  const unsigned slots =
      std::min(g_max_team.load(std::memory_order_relaxed), kPlanBlocks);
  t.busy_ns.reserve(slots);
  for (unsigned s = 0; s < slots; ++s)
    t.busy_ns.push_back(g_shard_busy_ns[s].load(std::memory_order_relaxed));
  return t;
}

}  // namespace rn::radio
