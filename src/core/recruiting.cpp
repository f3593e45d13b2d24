#include "core/recruiting.h"

#include <algorithm>

#include "common/check.h"
#include "core/trial_frame.h"

namespace rn::core {

recruiting_instance::recruiting_instance(config c) : cfg_(std::move(c)) {
  RN_REQUIRE(cfg_.g != nullptr, "graph required");
  RN_REQUIRE(cfg_.L >= 1 && cfg_.iterations >= 1 && cfg_.exp_step >= 1,
             "invalid recruiting parameters");
  const std::size_t n = cfg_.g->node_count();
  red_idx_.assign(n, -1);
  blue_idx_.assign(n, -1);
  red_.resize(cfg_.reds.size());
  blue_.resize(cfg_.blues.size());
  for (std::size_t i = 0; i < cfg_.reds.size(); ++i) {
    RN_REQUIRE(red_idx_[cfg_.reds[i]] == -1, "duplicate red");
    red_idx_[cfg_.reds[i]] = static_cast<std::int32_t>(i);
    red_rng_.push_back(rng::for_stream(cfg_.seed * 3 + 1, cfg_.reds[i]));
  }
  for (std::size_t i = 0; i < cfg_.blues.size(); ++i) {
    RN_REQUIRE(blue_idx_[cfg_.blues[i]] == -1, "duplicate blue");
    RN_REQUIRE(red_idx_[cfg_.blues[i]] == -1, "node both red and blue");
    blue_idx_[cfg_.blues[i]] = static_cast<std::int32_t>(i);
    blue_rng_.push_back(rng::for_stream(cfg_.seed * 3 + 2, cfg_.blues[i]));
  }
  // The reds are fixed for the whole instance: draw each one's coins up to
  // its first round-0 success.
  next_beacon_ = cfg_.iterations;
  for (std::size_t i = 0; i < red_.size(); ++i) {
    red_[i].beacon_at = seek_beacon(i, -1);
    next_beacon_ = std::min(next_beacon_, red_[i].beacon_at);
  }
}

round_t recruiting_instance::seek_beacon(std::size_t i, round_t after) {
  // Round-0 exponent sweeps the Decay ladder, one step every `exp_step`
  // iterations, and cycles [DEV-11]. The paper's monotone ramp gives every
  // degree class one Theta(log n)-iteration window; cycling gives the same
  // windows but recurring, which late recruitment (e.g. growth after an
  // early lone echo) needs at small n.
  return seek_success(red_rng_[i], after, cfg_.iterations, [this](round_t j) {
    return 1 + static_cast<int>((j / cfg_.exp_step) % cfg_.L);
  });
}

round_t recruiting_instance::seek_answer(std::size_t i, round_t after) {
  // Blue Decay ladder: exponents 0..L at positions 1..L+1.
  return seek_success(blue_rng_[i], after, cfg_.L + 2,
                      [](round_t pos) { return static_cast<int>(pos - 1); });
}

void recruiting_instance::start_iteration() {
  beaconed_ = false;
  acking_ = false;
  next_answer_ = cfg_.L + 2;
  for (auto& r : red_) {
    r.sent_r1 = false;
    r.heard.clear();
    r.intent = false;
    r.ack_ok = false;
  }
  for (auto& b : blue_) {
    b.heard_red = no_node;
    b.ack_due = false;
    b.answer_at = cfg_.L + 2;
  }
}

void recruiting_instance::open_ladder() {
  // Round 0's receptions are in. Nothing writes `recruited` or `heard_red`
  // again before the response round, whoever transmits, so the blues that
  // answer stay the same through the whole ladder.
  for (std::size_t i = 0; i < blue_.size(); ++i) {
    auto& b = blue_[i];
    if (b.recruited || b.heard_red == no_node) continue;
    b.answer_at = seek_answer(i, 0);
    next_answer_ = std::min(next_answer_, b.answer_at);
  }
}

void recruiting_instance::plan(radio::round_buffer& out) {
  if (finished()) return;
  const int pos = pos_in_iteration();
  const int iter = iteration();

  if (pos == 0) {
    start_iteration();
    if (next_beacon_ != iter) return;
    next_beacon_ = cfg_.iterations;
    for (std::size_t i = 0; i < red_.size(); ++i) {
      auto& r = red_[i];
      if (r.beacon_at == iter) {
        r.sent_r1 = true;
        beaconed_ = true;
        out.add_owned(cfg_.reds[i], radio::packet::make_beacon(cfg_.reds[i]));
        r.beacon_at = seek_beacon(i, iter);
      }
      next_beacon_ = std::min(next_beacon_, r.beacon_at);
    }
    return;
  }

  if (pos >= 1 && pos <= cfg_.L + 1) {
    // Blue Decay ladder: the blues whose answer falls here.
    if (next_answer_ != pos) return;
    next_answer_ = cfg_.L + 2;
    for (std::size_t i = 0; i < blue_.size(); ++i) {
      auto& b = blue_[i];
      if (b.answer_at == pos) {
        RN_ASSERT(!b.recruited && b.heard_red != no_node);
        out.add_owned(cfg_.blues[i],
                      radio::packet::make_pair(cfg_.blues[i], b.heard_red));
        b.answer_at = seek_answer(i, pos);
      }
      next_answer_ = std::min(next_answer_, b.answer_at);
    }
    return;
  }

  if (pos == cfg_.L + 2) {
    // Response round: exactly the round-0 transmitters transmit.
    for (std::size_t i = 0; i < red_.size(); ++i) {
      auto& r = red_[i];
      if (!r.sent_r1) continue;
      radio::packet p = radio::packet::make_empty();
      if (r.k == klass::none) {
        if (r.heard.size() == 1) {
          r.k = klass::solo;
          r.solo_child = r.heard.front();
          p = radio::packet::make_echo(r.solo_child);
        } else if (r.heard.size() >= 2) {
          r.k = klass::many;
          p = radio::packet::make_sigma(cfg_.reds[i]);
        }
      } else if (r.k == klass::solo) {
        if (!r.heard.empty()) {
          r.intent = true;  // growth needs the [DEV-2] handshake
          p = radio::packet::make_grow_intent(cfg_.reds[i]);
        }
      } else {  // many: growth is always consistent
        if (!r.heard.empty()) p = radio::packet::make_sigma(cfg_.reds[i]);
      }
      out.add_owned(cfg_.reds[i], p);
    }
    return;
  }

  if (pos == cfg_.L + 3) {
    // Ack round: lone children of grow-intent senders.
    for (std::size_t i = 0; i < blue_.size(); ++i) {
      auto& b = blue_[i];
      if (b.ack_due)
        out.add_owned(cfg_.blues[i],
                      radio::packet::make_ack(cfg_.blues[i], b.parent));
    }
    return;
  }

  // pos == L+4: commit round — round-0 transmitters again.
  for (std::size_t i = 0; i < red_.size(); ++i) {
    auto& r = red_[i];
    if (!r.sent_r1) continue;
    radio::packet p = radio::packet::make_empty();
    if (r.intent && r.ack_ok) {
      r.k = klass::many;
      r.solo_child = no_node;
      p = radio::packet::make_sigma(cfg_.reds[i]);
    }
    out.add_owned(cfg_.reds[i], p);
  }
}

void recruiting_instance::on_reception(const radio::reception& rx) {
  if (finished() || rx.what != radio::observation::message) return;
  const int pos = pos_in_iteration();
  const node_id v = rx.listener;
  const auto& p = *rx.pkt;

  if (pos == 0) {
    // Blues record which red they heard.
    const auto bi = blue_idx_[v];
    if (bi >= 0 && p.kind == radio::packet_kind::beacon)
      blue_[static_cast<std::size_t>(bi)].heard_red = p.a;
    return;
  }

  if (pos >= 1 && pos <= cfg_.L + 1) {
    // Reds collect blues that address them.
    const auto ri = red_idx_[v];
    if (ri >= 0 && p.kind == radio::packet_kind::pair && p.b == v) {
      auto& heard = red_[static_cast<std::size_t>(ri)].heard;
      if (std::find(heard.begin(), heard.end(), p.a) == heard.end())
        heard.push_back(p.a);
    }
    return;
  }

  if (pos == cfg_.L + 2 || pos == cfg_.L + 4) {
    // Blues react to responses/commits from the red they heard in round 0, or
    // (for already-recruited children) from their parent.
    const auto bi = blue_idx_[v];
    if (bi < 0) return;
    auto& b = blue_[static_cast<std::size_t>(bi)];
    switch (p.kind) {
      case radio::packet_kind::echo:
        if (!b.recruited && p.a == v && rx.from == b.heard_red) {
          b.recruited = true;
          b.parent = rx.from;
          b.parent_class = klass::solo;
        }
        break;
      case radio::packet_kind::sigma:
        if (!b.recruited && rx.from == b.heard_red) {
          b.recruited = true;
          b.parent = rx.from;
          b.parent_class = klass::many;
        } else if (b.recruited && rx.from == b.parent) {
          b.parent_class = klass::many;  // guaranteed/opportunistic update
        }
        break;
      case radio::packet_kind::grow_intent:
        if (b.recruited && rx.from == b.parent &&
            b.parent_class == klass::solo && pos == cfg_.L + 2) {
          b.ack_due = true;
          acking_ = true;
        }
        break;
      default:
        break;
    }
    return;
  }

  if (pos == cfg_.L + 3) {
    // Grow-intent reds listen for a clean ack from their lone child.
    const auto ri = red_idx_[v];
    if (ri < 0) return;
    auto& r = red_[static_cast<std::size_t>(ri)];
    if (r.intent && p.kind == radio::packet_kind::ack && p.b == v &&
        p.a == r.solo_child)
      r.ack_ok = true;
  }
}

void recruiting_instance::end_round() {
  if (finished()) return;
  if (pos_in_iteration() == 0) open_ladder();
  ++round_;
}

round_t recruiting_instance::quiet_rounds() const {
  if (finished()) return 0;
  const int L = cfg_.L;
  const int pos = pos_in_iteration();
  // Every red draws in round 0 of every iteration: its next success.
  round_t next = next_beacon_ * (L + 5);
  if (pos > 0) {
    // The rest of this iteration: the next ladder answer, then the rounds a
    // round-0 beacon makes busy (response, the ack when one is due, commit).
    int busy = 0;
    if (next_answer_ <= L + 1)
      busy = static_cast<int>(next_answer_);
    else if (beaconed_ && pos <= L + 2)
      busy = L + 2;
    else if (acking_ && pos <= L + 3)
      busy = L + 3;
    else if (beaconed_)
      busy = L + 4;
    if (busy > 0) next = std::min(next, round_ - pos + busy);
  }
  return next - round_;
}

void recruiting_instance::skip_rounds(round_t k) {
  RN_REQUIRE(k >= 0 && k <= quiet_rounds(), "skip beyond quiet window");
  // A skipped round 0 still starts its iteration, as plan() does.
  const int pos = pos_in_iteration();
  if (k > 0 && (pos == 0 || pos + k > cfg_.L + 5)) start_iteration();
  round_ += k;
}

recruiting_instance::red_result recruiting_instance::red(node_id v) const {
  const auto i = red_idx_[v];
  RN_REQUIRE(i >= 0, "node is not a red participant");
  const auto& r = red_[static_cast<std::size_t>(i)];
  return {r.k, r.solo_child};
}

recruiting_instance::blue_result recruiting_instance::blue(node_id u) const {
  const auto i = blue_idx_[u];
  RN_REQUIRE(i >= 0, "node is not a blue participant");
  const auto& b = blue_[static_cast<std::size_t>(i)];
  return {b.recruited, b.parent, b.parent_class};
}

std::size_t recruiting_instance::unrecruited_count() const {
  std::size_t c = 0;
  for (const auto& b : blue_)
    if (!b.recruited) ++c;
  return c;
}

recruiting_run_result run_recruiting(const graph::graph& g,
                                     const std::vector<node_id>& reds,
                                     const std::vector<node_id>& blues, int L,
                                     int iterations, int exp_step,
                                     std::uint64_t seed, bool fast_forward) {
  recruiting_instance::config cfg;
  cfg.g = &g;
  cfg.reds = reds;
  cfg.blues = blues;
  cfg.L = L;
  cfg.iterations = iterations;
  cfg.exp_step = exp_step;
  cfg.seed = seed;
  recruiting_instance inst(std::move(cfg));

  recruiting_run_result res;
  trial_frame frame(g, {.collision_detection = false}, fast_forward);
  frame.drive(inst);
  res.rounds = frame.stats().rounds;
  res.transmissions = frame.stats().transmissions;
  res.blues = blues.size();
  // Count recruits and cross-check properties (b)/(c).
  std::vector<std::size_t> child_count(g.node_count(), 0);
  for (node_id u : blues) {
    const auto b = inst.blue(u);
    if (b.recruited) {
      ++res.recruited;
      child_count[b.parent] += 1;
    }
  }
  for (node_id v : reds) {
    const auto r = inst.red(v);
    const std::size_t c = child_count[v];
    const bool ok = (r.k == recruiting_instance::klass::none && c == 0) ||
                    (r.k == recruiting_instance::klass::solo && c == 1) ||
                    (r.k == recruiting_instance::klass::many && c >= 2);
    if (!ok) res.properties_ok = false;
  }
  for (node_id u : blues) {
    const auto b = inst.blue(u);
    if (!b.recruited) continue;
    const auto pk = inst.red(b.parent).k;
    if (pk != b.parent_class) res.properties_ok = false;
  }
  return res;
}

}  // namespace rn::core
