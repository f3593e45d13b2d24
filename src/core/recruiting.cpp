#include "core/recruiting.h"

#include <algorithm>

#include "common/check.h"
#include "core/runner.h"

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
}

void recruiting_instance::start_iteration() {
  sent_r1_count_ = 0;
  heard_count_ = 0;
  for (auto& r : red_) {
    r.sent_r1 = false;
    r.heard.clear();
    r.intent = false;
    r.ack_ok = false;
  }
  for (auto& b : blue_) {
    b.heard_red = no_node;
    b.ack_due = false;
  }
}

void recruiting_instance::plan(radio::round_buffer& out) {
  if (finished()) return;
  const int pos = pos_in_iteration();
  const int iter = iteration();

  if (pos == 0) {
    start_iteration();
    // Round-0 exponent sweeps the Decay ladder, one step every `exp_step`
    // iterations, and cycles [DEV-11]. The paper's monotone ramp gives every
    // degree class one Theta(log n)-iteration window; cycling gives the same
    // windows but recurring, which late recruitment (e.g. growth after an
    // early lone echo) needs at small n.
    const int e = 1 + (iter / cfg_.exp_step) % cfg_.L;
    for (std::size_t i = 0; i < red_.size(); ++i) {
      if (red_rng_[i].with_probability_pow2(e)) {
        red_[i].sent_r1 = true;
        ++sent_r1_count_;
        out.add_owned(cfg_.reds[i], radio::packet::make_beacon(cfg_.reds[i]));
      }
    }
    return;
  }

  if (pos >= 1 && pos <= cfg_.L + 1) {
    // Blue Decay ladder: exponents 0..L across the phase.
    const int e = pos - 1;
    for (std::size_t i = 0; i < blue_.size(); ++i) {
      auto& b = blue_[i];
      if (b.recruited || b.heard_red == no_node) continue;
      if (blue_rng_[i].with_probability_pow2(e))
        out.add_owned(cfg_.blues[i],
                      radio::packet::make_pair(cfg_.blues[i], b.heard_red));
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
    if (bi >= 0 && p.kind == radio::packet_kind::beacon) {
      if (blue_[static_cast<std::size_t>(bi)].heard_red == no_node)
        ++heard_count_;
      blue_[static_cast<std::size_t>(bi)].heard_red = p.a;
    }
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
            b.parent_class == klass::solo && pos == cfg_.L + 2)
          b.ack_due = true;
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
  if (!finished()) ++round_;
}

round_t recruiting_instance::quiet_rounds() const {
  if (finished()) return 0;
  // With no reds nothing can ever transmit or flip a coin: round 0 plans over
  // an empty red set and no blue can hear a red to answer in rounds 1..L+1.
  if (cfg_.reds.empty()) return rounds_required() - round_;
  const int pos = pos_in_iteration();
  if (pos == 0) return 0;  // round 0 draws one coin per red
  // A fizzled iteration: nobody beaconed and nobody heard one, so the blue
  // Decay, response, ack and commit rounds are all provably empty.
  if (sent_r1_count_ == 0 && heard_count_ == 0)
    return static_cast<round_t>(cfg_.L + 5 - pos);
  return 0;
}

void recruiting_instance::skip_rounds(round_t k) {
  RN_REQUIRE(k >= 0 && k <= quiet_rounds(), "skip beyond quiet window");
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
  res.rounds = drive(g, inst, fast_forward);
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
