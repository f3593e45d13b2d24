#include "baseline/decay.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "common/math.h"
#include "common/rng.h"
#include "core/runner.h"
#include "radio/network.h"

namespace rn::baseline {

namespace {

std::shared_ptr<const radio::packet_body> make_message_body() {
  auto body = std::make_shared<radio::packet_body>();
  body->data = {0xbc, 0xa5, 0x70};  // fixed marker payload
  return body;
}

radio::broadcast_result finish(const radio::network& net,
                               const radio::completion_tracker& tracker) {
  radio::broadcast_result res;
  res.completed = tracker.all_done();
  res.rounds_to_complete = tracker.first_complete_round();
  res.rounds_executed = net.stats().rounds;
  res.transmissions = net.stats().transmissions;
  res.deliveries = net.stats().deliveries;
  res.collisions_observed = net.stats().collisions_observed;
  res.energy = net.energy();
  return res;
}

// ---------------------------------------------------------------------------
// Round schedules: when a participating node is prompted, and with which
// Decay exponent. Each variant is a tiny policy consumed by the shared
// batched engine below: `start(v, t)` places a cursor on v's first prompted
// round >= t, and `next()` steps the cursor's (round t, exponent e) to the
// following prompted round without a division.

/// Classic BGI: every round, exponent (t mod L) + 1.
struct classic_schedule {
  int L;
  struct cursor {
    round_t t;
    int e;
    int L;
    void next() {
      ++t;
      e = e == L ? 1 : e + 1;
    }
  };
  [[nodiscard]] cursor start(node_id, round_t t) const {
    return {t, static_cast<int>(t % L) + 1, L};
  }
};

/// Lemma 3.2: a node at BFS level lv is prompted at (0-based) rounds
/// t >= lv with t ≡ lv (mod 3), with exponent ((t - lv) / 3) mod L.
struct leveled_schedule {
  const std::vector<level_t>* levels;
  int L;
  struct cursor {
    round_t t;
    int e;
    int L;
    void next() {
      t += 3;
      e = e + 1 == L ? 0 : e + 1;
    }
  };
  [[nodiscard]] cursor start(node_id v, round_t t) const {
    const round_t lv = (*levels)[v];
    const round_t slot = t <= lv ? 0 : (t - lv + 2) / 3;
    return {lv + 3 * slot, static_cast<int>(slot % L), L};
  }
};

/// Czumaj-Rytter stand-in: super-phases of 3 short phases + 1 full phase.
struct tuned_schedule {
  int L_short;
  int L_full;
  round_t super;  // 3 * L_short + L_full
  struct cursor {
    round_t t;
    int e;
    round_t pos;  // t mod super
    const tuned_schedule* s;
    void next() {
      ++t;
      if (++pos == s->super) pos = 0;
      const round_t full_start = 3 * static_cast<round_t>(s->L_short);
      if (pos == 0 || pos == full_start)
        e = 1;
      else if (pos < full_start)
        e = e == s->L_short ? 1 : e + 1;
      else
        ++e;
    }
  };
  [[nodiscard]] cursor start(node_id, round_t t) const {
    const round_t pos = t % super;
    const int e = pos < 3 * L_short ? static_cast<int>(pos % L_short) + 1
                                    : static_cast<int>(pos - 3 * L_short) + 1;
    return {t, e, pos, this};
  }
};

// ---------------------------------------------------------------------------
// Batched engine: per-node coins come from counter_word(seed, v, k) blocks,
// consumed exponent-many bits per scheduled round, and each participating
// node's *next transmit round* is computed directly. The runner keeps a
// calendar (min-heap keyed by (round, node)) of upcoming transmissions, so
// per-round work is proportional to the transmitter set — and rounds with no
// calendar entry are provably idle: `fast_forward` collapses them into one
// advance(), naive mode steps them empty; both are bit-identical.

/// Next prompted round >= `from` in which v's coins fire, or `limit`.
/// Consumes e bits per prompted round (all-zero => transmit, probability
/// exactly 2^-e); leftover bits of the last block are discarded, which is
/// unbiased because every block is fresh.
template <class Sched>
round_t sample_next_tx(const Sched& s, std::uint64_t seed, node_id v,
                       std::uint32_t& word_idx, round_t from, round_t limit) {
  std::uint64_t word = 0;
  int bits = 0;
  for (auto c = s.start(v, from); c.t < limit; c.next()) {
    const int e = c.e;
    if (e == 0) return c.t;
    if (e >= 64) continue;  // probability < 2^-63: treated as never (as rng does)
    if (bits < e) {
      word = counter_word(seed, v, word_idx++);
      bits = 64;
    }
    const bool hit = (word & ((1ULL << e) - 1)) == 0;
    word >>= e;
    bits -= e;
    if (hit) return c.t;
  }
  return limit;
}

struct batched_config {
  std::uint64_t seed = 1;
  round_t max_rounds = 0;
  bool stop_when_complete = true;
  bool fast_forward = false;
  bool mmv_noise = false;  ///< scheduled-but-uninformed nodes jam with noise
};

/// Calendar of upcoming transmissions: a ring of W per-round buckets over
/// the near horizon [base, base + W) — O(1) push and drain, no comparisons —
/// with a min-heap spillover for the rare coin gap longer than W (the
/// expected gap is one phase, ~log n rounds). Bucket order is insertion
/// order; the channel model is order-independent within a round.
///
/// `next_event` keeps a cached lower bound on the earliest non-empty ring
/// bucket, so the sparse late-phase calendars of large-n Decay (one skip
/// query per busy round) pay amortized O(1) instead of rescanning all W
/// buckets from base_ every call. Purely a query-path cache: push/drain
/// order — and with it coin consumption order — is untouched.
class tx_calendar {
 public:
  static constexpr std::size_t W = 128;  // power of two

  /// t must be >= base().
  void push(round_t t, node_id v) {
    if (t < base_ + static_cast<round_t>(W)) {
      ring_[static_cast<std::size_t>(t) & (W - 1)].push_back(v);
      ++ring_count_;
      ring_min_ = std::min(ring_min_, t);
    } else {
      far_.emplace(t, v);
    }
  }

  /// Earliest event round >= base(), or `limit` when none is due before it.
  [[nodiscard]] round_t next_event(round_t limit) const {
    if (ring_count_ > 0) {
      // ring_min_ never overshoots the true minimum, so scanning forward
      // from it (never from base_) finds the first non-empty bucket; the
      // result is cached for the next query.
      round_t t = std::max(base_, ring_min_);
      while (ring_[static_cast<std::size_t>(t) & (W - 1)].empty()) ++t;
      ring_min_ = t;
      return t;
    }
    if (!far_.empty()) return std::min(limit, far_.top().first);
    return limit;
  }

  /// Moves the horizon start to `t` (every bucket in [base, t) must already
  /// be drained) and pulls newly-near spillover events into the ring.
  void advance_to(round_t t) {
    base_ = t;
    while (!far_.empty() &&
           far_.top().first < base_ + static_cast<round_t>(W)) {
      ring_[static_cast<std::size_t>(far_.top().first) & (W - 1)].push_back(
          far_.top().second);
      ++ring_count_;
      ring_min_ = std::min(ring_min_, far_.top().first);
      far_.pop();
    }
  }

  /// Drains the bucket of round base() into `out` (appending).
  void drain_current(std::vector<node_id>& out) {
    auto& bucket = ring_[static_cast<std::size_t>(base_) & (W - 1)];
    out.insert(out.end(), bucket.begin(), bucket.end());
    ring_count_ -= bucket.size();
    bucket.clear();
    if (ring_count_ == 0) ring_min_ = no_event;
  }

 private:
  static constexpr round_t no_event = std::numeric_limits<round_t>::max();

  std::array<std::vector<node_id>, W> ring_;
  std::size_t ring_count_ = 0;
  std::priority_queue<std::pair<round_t, node_id>,
                      std::vector<std::pair<round_t, node_id>>, std::greater<>>
      far_;
  round_t base_ = 0;
  mutable round_t ring_min_ = no_event;  // cached scan start (lower bound)
};

/// `eligible(v)`: may v ever be prompted (leveled: has a BFS level)?
/// `jamming(v)`: is v scheduled from round 0 even while uninformed (MMV)?
template <class Sched, class EligibleFn, class JammingFn>
radio::broadcast_result run_batched_decay(const graph::graph& g,
                                          node_id source, const Sched& sched,
                                          EligibleFn&& eligible,
                                          JammingFn&& jamming,
                                          const batched_config& cfg) {
  const std::size_t n = g.node_count();
  radio::network net(g, {.collision_detection = false});
  radio::completion_tracker tracker(n);
  std::vector<char> informed(n, 0);
  std::vector<char> scheduled(n, 0);  // participating in the coin process
  informed[source] = 1;
  tracker.mark(source);

  std::vector<std::uint32_t> word_idx(n, 0);
  tx_calendar cal;
  auto schedule_from = [&](node_id v, round_t from) {
    scheduled[v] = 1;
    const round_t t = sample_next_tx(sched, cfg.seed, v, word_idx[v], from,
                                     cfg.max_rounds);
    if (t < cfg.max_rounds) cal.push(t, v);
  };
  if (eligible(source)) schedule_from(source, 0);
  for (node_id v = 0; v < n; ++v)
    if (!scheduled[v] && eligible(v) && jamming(v)) schedule_from(v, 0);

  const auto body = make_message_body();
  const radio::packet data_pkt = radio::packet::make_data(source, body);
  const radio::packet noise_pkt = radio::packet::make_noise();

  radio::round_buffer txs;
  std::vector<node_id> firing;
  std::vector<node_id> fresh;
  auto on_rx = [&](const radio::reception& rx) {
    if (rx.what == radio::observation::message &&
        rx.pkt->kind == radio::packet_kind::data && !informed[rx.listener]) {
      informed[rx.listener] = 1;
      tracker.mark(rx.listener);
      fresh.push_back(rx.listener);
    }
  };

  tracker.observe_round(0);  // n = 1 completes before any round runs
  round_t now = 0;
  while (now < cfg.max_rounds) {
    if (cfg.stop_when_complete && tracker.all_done()) break;
    // Idle stretch up to the next calendar entry. Nothing can be delivered
    // (and completion cannot change) in it, so skipping vs stepping the
    // empty rounds is bit-identical.
    const round_t next_busy = cal.next_event(cfg.max_rounds);
    if (next_busy > now) {
      if (cfg.fast_forward) {
        net.advance(next_busy - now);
      } else {
        txs.clear();
        for (round_t i = now; i < next_busy; ++i)
          net.step(txs, [](const radio::reception&) {});
      }
      now = next_busy;
      if (now >= cfg.max_rounds) break;
      cal.advance_to(now);
    }
    txs.clear();
    firing.clear();
    fresh.clear();
    cal.drain_current(firing);
    for (node_id v : firing) {
      if (informed[v])
        txs.add(v, data_pkt);
      else if (cfg.mmv_noise)
        txs.add(v, noise_pkt);
    }
    net.step(txs, on_rx);
    ++now;
    cal.advance_to(now);
    tracker.observe_round(net.stats().rounds);
    for (node_id v : firing) {
      const round_t t = sample_next_tx(sched, cfg.seed, v, word_idx[v], now,
                                       cfg.max_rounds);
      if (t < cfg.max_rounds) cal.push(t, v);
    }
    for (node_id u : fresh)
      if (!scheduled[u] && eligible(u)) schedule_from(u, now);
  }
  return finish(net, tracker);
}

constexpr auto always = [](node_id) { return true; };
constexpr auto never = [](node_id) { return false; };

}  // namespace

radio::broadcast_result run_decay_broadcast(const graph::graph& g,
                                            node_id source,
                                            const decay_options& opt) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source < n, "source out of range");
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  const int L = log_range(n_hat) + 1;
  const round_t max_rounds =
      opt.max_rounds > 0
          ? opt.max_rounds
          : 64 * (static_cast<round_t>(g.node_count()) * L + sq(L));

  if (opt.draws == draw_mode::batched) {
    batched_config cfg;
    cfg.seed = opt.seed;
    cfg.max_rounds = max_rounds;
    cfg.stop_when_complete = opt.stop_when_complete;
    cfg.fast_forward = opt.fast_forward;
    return run_batched_decay(g, source, classic_schedule{L}, always, never,
                             cfg);
  }

  // per_round oracle: the historical one-draw-per-informed-node-per-round
  // loop. fast_forward only defers planned-but-empty rounds (exact).
  radio::network net(g, {.collision_detection = false});
  radio::completion_tracker tracker(n);
  std::vector<char> informed(n, 0);
  std::vector<node_id> informed_list;
  informed[source] = 1;
  informed_list.push_back(source);
  tracker.mark(source);

  std::vector<rng> node_rng;
  node_rng.reserve(n);
  for (node_id v = 0; v < n; ++v)
    node_rng.push_back(rng::for_stream(opt.seed, v));

  const auto body = make_message_body();
  const radio::packet data_pkt = radio::packet::make_data(source, body);
  radio::round_buffer txs;
  core::round_sink sink(net, opt.fast_forward);
  const auto on_rx = [&](const radio::reception& rx) {
    if (rx.what == radio::observation::message &&
        rx.pkt->kind == radio::packet_kind::data && !informed[rx.listener]) {
      informed[rx.listener] = 1;
      informed_list.push_back(rx.listener);
      tracker.mark(rx.listener);
    }
  };
  tracker.observe_round(0);  // n = 1 completes before any round (as batched)
  for (round_t t = 0; t < max_rounds && !(opt.stop_when_complete &&
                                          tracker.all_done());
       ++t) {
    txs.clear();
    // Round position within the phase: i in [1, L], transmit w.p. 2^-i.
    const int i = static_cast<int>(t % L) + 1;
    for (node_id v : informed_list) {
      if (node_rng[v].with_probability_pow2(i)) txs.add(v, data_pkt);
    }
    if (sink.commit(txs, on_rx)) tracker.observe_round(net.stats().rounds);
    if (opt.stop_when_complete && tracker.all_done()) break;
  }
  sink.flush();
  return finish(net, tracker);
}

radio::broadcast_result run_leveled_decay_broadcast(
    const graph::graph& g, node_id source, const std::vector<level_t>& levels,
    const leveled_decay_options& opt) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source < n, "source out of range");
  RN_REQUIRE(levels.size() == n, "level vector size mismatch");
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  const int L = log_range(n_hat) + 1;
  level_t max_level = 0;
  for (level_t l : levels) max_level = std::max(max_level, l);
  const round_t max_rounds =
      64 * (3 * static_cast<round_t>(max_level) * L + 3 * sq(L));

  // MMV mode exercises noise, i.e. collisions; CD does not change behavior of
  // this protocol, so run without CD as in the paper's baseline setting.
  if (opt.draws == draw_mode::batched) {
    batched_config cfg;
    cfg.seed = opt.seed;
    cfg.max_rounds = max_rounds;
    cfg.fast_forward = opt.fast_forward;
    cfg.mmv_noise = opt.mmv_noise;
    const auto eligible = [&levels](node_id v) {
      return levels[v] != no_level;
    };
    const auto jamming = [mmv = opt.mmv_noise](node_id) { return mmv; };
    return run_batched_decay(g, source, leveled_schedule{&levels, L}, eligible,
                             jamming, cfg);
  }

  radio::network net(g, {.collision_detection = false});
  radio::completion_tracker tracker(n);
  std::vector<char> informed(n, 0);
  informed[source] = 1;
  tracker.mark(source);

  std::vector<rng> node_rng;
  node_rng.reserve(n);
  for (node_id v = 0; v < n; ++v)
    node_rng.push_back(rng::for_stream(opt.seed, v));

  const auto body = make_message_body();
  const radio::packet data_pkt = radio::packet::make_data(source, body);
  const radio::packet noise_pkt = radio::packet::make_noise();
  radio::round_buffer txs;
  core::round_sink sink(net, opt.fast_forward);
  const auto on_rx = [&](const radio::reception& rx) {
    if (rx.what == radio::observation::message &&
        rx.pkt->kind == radio::packet_kind::data && !informed[rx.listener]) {
      informed[rx.listener] = 1;
      tracker.mark(rx.listener);
    }
  };
  tracker.observe_round(0);  // n = 1 completes before any round (as batched)
  for (round_t t = 0; t < max_rounds && !tracker.all_done(); ++t) {
    txs.clear();
    // Lemma 3.2 schedule (1-based round index r): a node at level lv is
    // prompted iff r == lv + 1 (mod 3), with probability
    // 2^-((r - lv - 1)/3 mod L).
    const round_t r = t + 1;
    for (node_id v = 0; v < n; ++v) {
      const level_t lv = levels[v];
      if (lv == no_level) continue;
      if (r < lv + 1) continue;  // schedule reaches level lv at round lv+1
      if ((r - lv - 1) % 3 != 0) continue;
      const int e = static_cast<int>(((r - lv - 1) / 3) % L);
      if (!node_rng[v].with_probability_pow2(e)) continue;
      if (informed[v]) {
        txs.add(v, data_pkt);
      } else if (opt.mmv_noise) {
        txs.add(v, noise_pkt);
      }
    }
    if (sink.commit(txs, on_rx)) tracker.observe_round(net.stats().rounds);
    if (tracker.all_done()) break;
  }
  sink.flush();
  return finish(net, tracker);
}

radio::broadcast_result run_tuned_decay_broadcast(
    const graph::graph& g, node_id source, const tuned_decay_options& opt) {
  const std::size_t n = g.node_count();
  RN_REQUIRE(source < n, "source out of range");
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  const level_t d_hat =
      opt.d_hat > 0 ? opt.d_hat : graph::bfs(g, source).max_level;
  const int L_full = log_range(n_hat) + 1;
  // Short phases target per-hop contention ~ n/D (layer width on the layered
  // workloads); full phases cover the high-degree tail.
  const int L_short = std::max(
      1, log_range(std::max<std::size_t>(
             2, n_hat / std::max<std::size_t>(1, static_cast<std::size_t>(
                                                     std::max(d_hat, 1))))) +
             1);
  const round_t max_rounds =
      64 * (static_cast<round_t>(std::max(d_hat, 1)) * (3 * L_short + L_full) +
            8 * sq(L_full));

  // Super-phase = 3 short phases followed by 1 full phase.
  const round_t super = 3 * L_short + L_full;

  if (opt.draws == draw_mode::batched) {
    batched_config cfg;
    cfg.seed = opt.seed;
    cfg.max_rounds = max_rounds;
    cfg.fast_forward = opt.fast_forward;
    return run_batched_decay(g, source,
                             tuned_schedule{L_short, L_full, super}, always,
                             never, cfg);
  }

  radio::network net(g, {.collision_detection = false});
  radio::completion_tracker tracker(n);
  std::vector<char> informed(n, 0);
  std::vector<node_id> informed_list;
  informed[source] = 1;
  informed_list.push_back(source);
  tracker.mark(source);

  std::vector<rng> node_rng;
  node_rng.reserve(n);
  for (node_id v = 0; v < n; ++v)
    node_rng.push_back(rng::for_stream(opt.seed, v));

  const auto body = make_message_body();
  const radio::packet data_pkt = radio::packet::make_data(source, body);
  radio::round_buffer txs;
  core::round_sink sink(net, opt.fast_forward);
  const auto on_rx = [&](const radio::reception& rx) {
    if (rx.what == radio::observation::message &&
        rx.pkt->kind == radio::packet_kind::data && !informed[rx.listener]) {
      informed[rx.listener] = 1;
      informed_list.push_back(rx.listener);
      tracker.mark(rx.listener);
    }
  };
  tracker.observe_round(0);  // n = 1 completes before any round (as batched)
  for (round_t t = 0; t < max_rounds && !tracker.all_done(); ++t) {
    const round_t pos = t % super;
    int i;  // decay exponent for this round
    if (pos < 3 * L_short)
      i = static_cast<int>(pos % L_short) + 1;
    else
      i = static_cast<int>(pos - 3 * L_short) + 1;
    txs.clear();
    for (node_id v : informed_list) {
      if (node_rng[v].with_probability_pow2(i)) txs.add(v, data_pkt);
    }
    if (sink.commit(txs, on_rx)) tracker.observe_round(net.stats().rounds);
    if (tracker.all_done()) break;
  }
  sink.flush();
  return finish(net, tracker);
}

}  // namespace rn::baseline
