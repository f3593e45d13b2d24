// Cross-commit golden pins: the exact results of every broadcast runner —
// the GST slow-slot scan, the batched Decay sampler and its per-round
// oracles, and the uncoded multi-message baselines — on two fixed graphs at
// fixed seeds. The values were recorded before that code was last rewritten
// (the oracle and baseline rows before the runners moved onto one trial
// frame, the RLNC rows at k = 20 before the coded data path stopped
// allocating), and a rewrite of it is only an optimization if it leaves every
// draw — and so every number below — where it was. Never edit a pin to make
// a change pass. The traffic and energy columns of the eight gst-unknown-cd
// and rlnc-unknown-cd rows were re-recorded when those relays began to stop
// at completion: they are the older code's counts through the completion
// round, taken from that code by a counter that froze them there, and their
// rounds_to_complete did not move.
//
// Each case runs with fast-forward off and on, at intra-trial teams 1 and 2;
// all four runs must hit the same pin (the execution-mode byte-identity
// contract). On a mismatch or a missing pin the test prints the observed row
// in the table's own syntax.
//
// The distributed GST construction and its two primitives have pins of their
// own, recorded before their coins were drawn ahead of the round that spends
// them: the construction's round count depends only on the layering and L, so
// the broadcast pins cannot see a construction coin that moved. A third table
// pins the other setup phases (labeling, both layerings, the beep-wave
// estimate), recorded before they moved onto the trial frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/decay.h"
#include "baseline/multi_baselines.h"
#include "coding/rlnc.h"
#include "core/assignment.h"
#include "core/beep_waves.h"
#include "core/bfs_protocols.h"
#include "core/gst.h"
#include "core/gst_centralized.h"
#include "core/gst_distributed.h"
#include "core/multi_broadcast.h"
#include "core/recruiting.h"
#include "core/single_broadcast.h"
#include "core/virtual_distance.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "radio/network.h"

namespace rn {
namespace {

struct pin {
  const char* name;
  round_t rounds_to_complete;
  std::int64_t transmissions;
  std::int64_t deliveries;
  std::int64_t collisions_observed;
  std::uint64_t energy_fnv;  ///< FNV-1a over the energy vector's LE bytes
};

constexpr pin kPins[] = {
    {"gnp/decay", 36, 107, 156, 0, 0x58d17b46267befcULL},
    {"gnp/decay/per-round", 29, 89, 136, 0, 0x787e01f317777db2ULL},
    {"gnp/gst-known/mmv=0,classic=0,roots=1", 40, 76, 190, 0, 0xf609416d9e37e033ULL},
    {"gnp/gst-known/mmv=0,classic=0,roots=2", 40, 90, 208, 0, 0x3ccc3c3dc0b62a13ULL},
    {"gnp/gst-known/mmv=0,classic=1,roots=1", 40, 83, 179, 0, 0xbc9247fa7eacacb0ULL},
    {"gnp/gst-known/mmv=0,classic=1,roots=2", 68, 192, 362, 0, 0xfcb4f47392f11465ULL},
    {"gnp/gst-known/mmv=1,classic=0,roots=1", 62, 203, 370, 0, 0xd205ba28006c28c4ULL},
    {"gnp/gst-known/mmv=1,classic=0,roots=2", 90, 308, 499, 0, 0xdc9c140459913a05ULL},
    {"gnp/gst-known/mmv=1,classic=1,roots=1", 68, 207, 378, 0, 0x7f7701f5bf55a030ULL},
    {"gnp/gst-known/mmv=1,classic=1,roots=2", 68, 211, 351, 0, 0xe2118db5869dbbc2ULL},
    {"gnp/gst-unknown-cd", 690343, 64, 141, 45, 0x1ad424c22d26b5ULL},
    {"gnp/gst-unknown-cd/ring_divisor=3", 418737, 1956, 6297, 1467, 0x75440dedb4d2363fULL},
    {"gnp/leveled-decay/mmv=0", 28, 132, 235, 0, 0x2d5363075dde6625ULL},
    {"gnp/leveled-decay/mmv=1", 54, 270, 430, 0, 0x7480601808a84477ULL},
    {"gnp/leveled-decay/per-round/mmv=0", 52, 244, 372, 0, 0x52346611adc61e71ULL},
    {"gnp/leveled-decay/per-round/mmv=1", 52, 272, 373, 0, 0xfbade12a084aead1ULL},
    {"gnp/rlnc-known", 188, 543, 987, 0, 0x2fd1c86e3c52a940ULL},
    {"gnp/rlnc-known/k=20,payload=13", 692, 1985, 3752, 0, 0x26021187a90412feULL},
    {"gnp/rlnc-unknown-cd", 690623, 450, 782, 313, 0xe1ec986cdd6b7d11ULL},
    {"gnp/rlnc-unknown-cd/k=20,payload=13", 704055, 37109, 62140, 26996, 0x92d8b059df5a5fdeULL},
    {"gnp/routing/k=3", 282, 1809, 2047, 0, 0x78327e9a5f8d9dc0ULL},
    {"gnp/seq-decay/k=3", 102, 293, 430, 0, 0x7727f38c001f42e6ULL},
    {"gnp/tuned-decay", 23, 88, 125, 0, 0x61a2a039c0cf2505ULL},
    {"gnp/tuned-decay/per-round", 29, 139, 172, 0, 0xb7478ca027d29324ULL},
    {"layered/decay", 37, 180, 290, 0, 0x686abac8ad7f3329ULL},
    {"layered/decay/per-round", 34, 134, 218, 0, 0x432368534c9b9cbULL},
    {"layered/gst-known/mmv=0,classic=0,roots=1", 59, 138, 347, 0, 0x4ff97489fd78ea65ULL},
    {"layered/gst-known/mmv=0,classic=0,roots=2", 30, 79, 243, 0, 0xa09dbd3d6e65ef76ULL},
    {"layered/gst-known/mmv=0,classic=1,roots=1", 104, 305, 754, 0, 0xa200c253e8d7a320ULL},
    {"layered/gst-known/mmv=0,classic=1,roots=2", 92, 349, 737, 0, 0x8b4c7e196eeb82d6ULL},
    {"layered/gst-known/mmv=1,classic=0,roots=1", 122, 527, 1074, 0, 0x5c40ae8cf8fdc028ULL},
    {"layered/gst-known/mmv=1,classic=0,roots=2", 62, 263, 541, 0, 0xb87d932e04eb97a8ULL},
    {"layered/gst-known/mmv=1,classic=1,roots=1", 174, 706, 1585, 0, 0xb2c72e4b8047c657ULL},
    {"layered/gst-known/mmv=1,classic=1,roots=2", 92, 393, 724, 0, 0xa7ee788d974b8884ULL},
    {"layered/gst-unknown-cd", 1058351, 163, 405, 173, 0xc2e2ec3805c3edf6ULL},
    {"layered/gst-unknown-cd/ring_divisor=3", 423877, 7690, 14356, 12183, 0xc4294d9d4f35c105ULL},
    {"layered/leveled-decay/mmv=0", 54, 218, 379, 0, 0x1f4c9ca5eb4f5dddULL},
    {"layered/leveled-decay/mmv=1", 123, 744, 1277, 0, 0xf6c75c5b00a01bf1ULL},
    {"layered/leveled-decay/per-round/mmv=0", 51, 216, 374, 0, 0xd5a6e68ec5ac1cc9ULL},
    {"layered/leveled-decay/per-round/mmv=1", 84, 503, 767, 0, 0x6817ee9bff945e4ULL},
    {"layered/rlnc-known", 300, 1125, 2500, 0, 0x35e2793dabc3dc76ULL},
    {"layered/rlnc-known/k=20,payload=13", 630, 2472, 5640, 0, 0xab4a587469f29ecfULL},
    {"layered/rlnc-unknown-cd", 1058559, 1016, 2368, 935, 0xe356b0f53d30e7f9ULL},
    {"layered/rlnc-unknown-cd/k=20,payload=13", 1071933, 54188, 121932, 51514, 0xb39262259a020cb5ULL},
    {"layered/routing/k=3", 241, 2067, 2628, 0, 0xe1283f3d3ef1fe1aULL},
    {"layered/seq-decay/k=3", 156, 831, 1148, 0, 0x30051d1acc1e090aULL},
    {"layered/tuned-decay", 30, 283, 328, 0, 0xb1d56b733afcb924ULL},
    {"layered/tuned-decay/per-round", 35, 277, 354, 0, 0xff29ecfb5348401aULL},
};

/// FNV-1a over the little-endian bytes of 32-bit values, continuing from `h`.
template <class T>
std::uint64_t fnv1a(const std::vector<T>& values,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  static_assert(sizeof(T) == 4);
  for (const T v : values) {
    const auto x = static_cast<std::uint32_t>(v);
    for (int i = 0; i < 4; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string row(const std::string& name, const radio::broadcast_result& r) {
  std::ostringstream os;
  os << "{\"" << name << "\", " << r.rounds_to_complete << ", "
     << r.transmissions << ", " << r.deliveries << ", "
     << r.collisions_observed << ", 0x" << std::hex << fnv1a(r.energy)
     << "ULL},";
  return os.str();
}

/// The broadcast result of a multi-message run, failing the case unless
/// every node decoded the messages that were sent.
radio::broadcast_result verified(const core::multi_broadcast_result& r) {
  EXPECT_TRUE(r.payloads_verified) << "decoded payloads differ";
  return r.base;
}

struct pin_case {
  std::string name;
  std::function<radio::broadcast_result(bool fast_forward)> run;
};

/// Default options at a seed, in the run's fast-forward mode.
core::options opts(std::uint64_t seed, bool fast_forward) {
  core::options o;
  o.seed = seed;
  o.fast_forward = fast_forward;
  return o;
}

void add_cases(std::vector<pin_case>& out, const std::string& prefix,
               const graph::graph& g) {
  const auto add = [&](std::string name, auto run) {
    out.push_back({prefix + "/" + std::move(name), std::move(run)});
  };
  add("decay", [&g](bool ff) {
    return baseline::run_decay_broadcast(g, 0, opts(7, ff));
  });
  add("tuned-decay", [&g](bool ff) {
    return baseline::run_tuned_decay_broadcast(g, 0, opts(8, ff));
  });
  for (const bool mmv : {false, true})
    add(std::string("leveled-decay/mmv=") + (mmv ? "1" : "0"),
        [&g, mmv](bool ff) {
          return baseline::run_leveled_decay_broadcast(
              g, 0, graph::bfs(g, 0).level, opts(9, ff), mmv);
        });
  // The per-round xoshiro oracles of the batched Decay contract.
  add("decay/per-round", [&g](bool ff) {
    return baseline::run_decay_broadcast(g, 0, opts(14, ff),
                                         baseline::draw_mode::per_round);
  });
  add("tuned-decay/per-round", [&g](bool ff) {
    return baseline::run_tuned_decay_broadcast(g, 0, opts(15, ff),
                                               baseline::draw_mode::per_round);
  });
  for (const bool mmv : {false, true})
    add(std::string("leveled-decay/per-round/mmv=") + (mmv ? "1" : "0"),
        [&g, mmv](bool ff) {
          return baseline::run_leveled_decay_broadcast(
              g, 0, graph::bfs(g, 0).level, opts(16, ff), mmv,
              baseline::draw_mode::per_round);
        });
  add("seq-decay/k=3", [&g](bool ff) {
    return baseline::run_sequential_decay_multi(g, 0, 3, opts(17, ff));
  });
  add("routing/k=3", [&g](bool ff) {
    return baseline::run_routing_multi(g, 0, 3, opts(18, ff));
  });
  add("gst-unknown-cd", [&g](bool ff) {
    core::options o = opts(10, ff);
    o.prm = core::params::fast();
    return core::run_unknown_cd_single_broadcast(g, 0, o);
  });
  // Rings of width 3: construction problems of several rings run
  // concurrently, and the relay hands the message from ring to ring.
  add("gst-unknown-cd/ring_divisor=3", [&g](bool ff) {
    core::options o = opts(10, ff);
    o.prm = core::params::fast();
    o.prm.ring_divisor = 3.0;
    return core::run_unknown_cd_single_broadcast(g, 0, o);
  });
  // The RLNC runners at k = 3 and at k = 20 with 13-byte payloads: four
  // rlnc-unknown-cd batches of L = 6, and payloads of one 8-byte word plus a
  // 5-byte tail. Every case must also decode the messages it sent.
  for (const std::size_t k : {std::size_t{3}, std::size_t{20}}) {
    const std::size_t size = k == 3 ? 8 : 13;
    const std::string shape =
        k == 3 ? "" : "/k=" + std::to_string(k) + ",payload=" +
                          std::to_string(size);
    add("rlnc-known" + shape, [&g, k, size](bool ff) {
      core::options o = opts(11, ff);
      o.payload_size = size;
      return verified(core::run_known_multi_broadcast(
          g, 0, coding::make_test_messages(k, size, 0x5eed), o));
    });
    add("rlnc-unknown-cd" + shape, [&g, k, size](bool ff) {
      core::options o = opts(12, ff);
      o.payload_size = size;
      o.prm = core::params::fast();
      return verified(core::run_unknown_cd_multi_broadcast(
          g, 0, coding::make_test_messages(k, size, 0x5eed), o));
    });
  }
  const node_id last = static_cast<node_id>(g.node_count() - 1);
  for (const bool mmv : {false, true})
    for (const bool classic : {false, true})
      for (const int roots : {1, 2}) {
        std::ostringstream name;
        name << "gst-known/mmv=" << mmv << ",classic=" << classic
             << ",roots=" << roots;
        add(name.str(), [&g, mmv, classic, roots, last](bool ff) {
          const std::vector<node_id> informed =
              roots == 1 ? std::vector<node_id>{0}
                         : std::vector<node_id>{0, last};
          const auto t = roots == 1
                             ? core::build_gst_centralized(g, 0)
                             : core::build_gst_centralized_multi(g, informed);
          return core::run_gst_single_broadcast(g, t, core::derive(g, t),
                                                informed, opts(13, ff), mmv,
                                                classic);
        });
      }
}

/// Sets the process-wide intra-trial team for the networks built in scope.
class team_scope {
 public:
  explicit team_scope(unsigned threads) : saved_(radio::get_intra_trial_policy()) {
    radio::set_intra_trial_policy(
        {.threads = threads, .min_parallel_volume = 0});
  }
  ~team_scope() { radio::set_intra_trial_policy(saved_); }
  team_scope(const team_scope&) = delete;
  team_scope& operator=(const team_scope&) = delete;

 private:
  radio::intra_trial_policy saved_;
};

/// The two fixed graphs every table pins.
graph::graph fixed_layered() {
  graph::layered_options lo;
  lo.depth = 9;
  lo.width = 7;
  lo.edge_prob = 0.35;
  lo.intra_prob = 0.15;
  lo.seed = 5;
  return graph::random_layered(lo);
}

graph::graph fixed_gnp() { return graph::random_gnp_connected(48, 0.09, 13); }

TEST(GoldenPins, EveryProtocolReproducesItsRecordedResults) {
  std::map<std::string, pin> want;
  for (const pin& p : kPins) want.emplace(p.name, p);

  const auto layered = fixed_layered();
  const auto gnp = fixed_gnp();

  std::vector<pin_case> cases;
  add_cases(cases, "layered", layered);
  add_cases(cases, "gnp", gnp);

  std::set<std::string> seen;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    seen.insert(c.name);
    const auto it = want.find(c.name);
    for (const unsigned team : {1u, 2u})
      for (const bool ff : {false, true}) {
        const team_scope scope(team);
        const auto res = c.run(ff);
        const std::string got = row(c.name, res);
        if (it == want.end()) {
          ADD_FAILURE() << "no pin; observed " << got;
          continue;
        }
        const pin& p = it->second;
        const bool same = res.rounds_to_complete == p.rounds_to_complete &&
                          res.transmissions == p.transmissions &&
                          res.deliveries == p.deliveries &&
                          res.collisions_observed == p.collisions_observed &&
                          fnv1a(res.energy) == p.energy_fnv;
        EXPECT_TRUE(same) << "team " << team << " fast_forward " << ff
                          << ": observed " << got;
      }
  }
  for (const pin& p : kPins)
    EXPECT_TRUE(seen.count(p.name)) << "pin without a case: " << p.name;
}

/// One construction run: rounds and transmissions on its own network, the
/// two [DEV-9] fallback counters, and FNV-1a over its outputs (parent_rank,
/// stretch_child, then parent and rank). run_recruiting reports no fallbacks
/// and no arrays; its row pins the recruited blues and properties_ok in the
/// counter columns and leaves the hash at 0.
struct construction_pin {
  const char* name;
  round_t rounds;
  std::int64_t transmissions;
  std::int64_t count_a;  ///< fallback_finalizations / recruited blues
  std::int64_t count_b;  ///< fallback_adoptions / properties_ok
  std::uint64_t output_fnv;
};

constexpr construction_pin kConstructionPins[] = {
    {"bipartite/assignment", 21748, 997, 0, 0, 0xe24f2508ed64b17bULL},
    {"bipartite/recruiting", 216, 225, 9, 1, 0x0ULL},
    {"gnp/construction/pipelined", 689520, 2624, 0, 0, 0xb7bf273a9564311fULL},
    {"gnp/construction/sequential", 536340, 2790, 0, 0, 0x27ccf7409e263552ULL},
    {"layered/construction/pipelined", 1057320, 5762, 0, 0, 0xf24bd9e5dfe0ee47ULL},
    {"layered/construction/sequential", 965412, 5820, 0, 0, 0x76a3f085101c3176ULL},
};

std::string row(const std::string& name, const construction_pin& r) {
  std::ostringstream os;
  os << "{\"" << name << "\", " << r.rounds << ", " << r.transmissions << ", "
     << r.count_a << ", " << r.count_b << ", 0x" << std::hex << r.output_fnv
     << "ULL},";
  return os.str();
}

construction_pin observed(const core::distributed_gst_outcome& o) {
  EXPECT_EQ(o.forests.size(), 1u);
  std::uint64_t h = fnv1a(o.parent_rank);
  h = fnv1a(o.stretch_child, h);
  h = fnv1a(o.forests[0].parent, h);
  h = fnv1a(o.forests[0].rank, h);
  return {nullptr, o.rounds, o.transmissions, o.fallback_finalizations,
          o.fallback_adoptions, h};
}

construction_pin observed(const core::assignment_run_result& r) {
  std::uint64_t h = fnv1a(r.st.parent_rank);
  h = fnv1a(r.st.stretch_child, h);
  h = fnv1a(r.st.parent, h);
  h = fnv1a(r.st.rank, h);
  return {nullptr, r.rounds, r.transmissions, r.fallback_finalizations,
          r.fallback_adoptions, h};
}

construction_pin observed(const core::recruiting_run_result& r) {
  return {nullptr, r.rounds, r.transmissions,
          static_cast<std::int64_t>(r.recruited), r.properties_ok ? 1 : 0, 0};
}

using construction_case =
    std::pair<std::string, std::function<construction_pin(bool fast_forward)>>;

/// Runs every case at teams 1 and 2 with fast-forward off and on; all four
/// runs must hit the case's pin in `table`.
template <std::size_t N>
void expect_pins(const construction_pin (&table)[N],
                 const std::vector<construction_case>& cases) {
  std::map<std::string, construction_pin> want;
  for (const construction_pin& p : table) want.emplace(p.name, p);
  std::set<std::string> seen;
  for (const auto& [name, run] : cases) {
    SCOPED_TRACE(name);
    seen.insert(name);
    const auto it = want.find(name);
    for (const unsigned team : {1u, 2u})
      for (const bool ff : {false, true}) {
        const team_scope scope(team);
        const construction_pin got = run(ff);
        if (it == want.end()) {
          ADD_FAILURE() << "no pin; observed " << row(name, got);
          continue;
        }
        const construction_pin& p = it->second;
        const bool same = got.rounds == p.rounds &&
                          got.transmissions == p.transmissions &&
                          got.count_a == p.count_a &&
                          got.count_b == p.count_b &&
                          got.output_fnv == p.output_fnv;
        EXPECT_TRUE(same) << "team " << team << " fast_forward " << ff
                          << ": observed " << row(name, got);
      }
  }
  for (const construction_pin& p : table)
    EXPECT_TRUE(seen.count(p.name)) << "pin without a case: " << p.name;
}

/// A bipartite instance: reds 0..half-1, blues half..2*half-1, each red-blue
/// edge present with probability p (the instances of test_fast_forward).
graph::graph bipartite(std::size_t half, double p, std::uint64_t seed) {
  graph::graph::builder gb(2 * half);
  rng r(seed);
  for (node_id red = 0; red < half; ++red)
    for (node_id blue = 0; blue < half; ++blue)
      if (r.bernoulli(p)) gb.add_edge(red, static_cast<node_id>(half + blue));
  return std::move(gb).build();
}

TEST(GoldenPins, ConstructionReproducesItsRecordedResults) {
  const auto layered = fixed_layered();
  const auto gnp = fixed_gnp();
  const auto assign_g = bipartite(12, 0.3, 77);
  const auto recruit_g = bipartite(10, 0.25, 3);

  std::vector<node_id> assign_reds, assign_blues, recruit_reds, recruit_blues;
  for (node_id v = 0; v < 12; ++v) {
    assign_reds.push_back(v);
    if (assign_g.degree(12 + v) > 0) assign_blues.push_back(12 + v);
  }
  for (node_id v = 0; v < 10; ++v) {
    recruit_reds.push_back(v);
    recruit_blues.push_back(10 + v);
  }

  std::vector<construction_case> cases;
  for (const auto& [prefix, g] :
       {std::pair<std::string, const graph::graph*>{"layered", &layered},
        {"gnp", &gnp}})
    for (const bool pipelined : {true, false})
      cases.emplace_back(
          prefix + (pipelined ? "/construction/pipelined"
                              : "/construction/sequential"),
          [g, pipelined](bool ff) {
            core::options o = opts(19, ff);
            o.prm = core::params::fast();
            return observed(
                core::build_gst_distributed_single(*g, 0, o, pipelined));
          });
  cases.emplace_back("bipartite/assignment", [&](bool ff) {
    const int L = 4;
    return observed(core::run_assignment(assign_g, assign_reds, assign_blues,
                                         1, L, 2 * L, 3 * L, 4 * L * L, L, 5,
                                         ff));
  });
  cases.emplace_back("bipartite/recruiting", [&](bool ff) {
    return observed(core::run_recruiting(recruit_g, recruit_reds,
                                         recruit_blues, 4, 24, 4, 9, ff));
  });

  expect_pins(kConstructionPins, cases);
}

/// The setup phases beside the construction, each on its own network, in
/// the same columns: the Lemma 3.10 labeling of the pipelined construction's
/// forest (unlabeled members in count_a, FNV-1a over the labels), the two
/// layerings (FNV-1a over the levels) and the beep-wave estimate (the
/// estimate in count_a; it reports no transmissions). The labels equal the
/// true virtual distances w.h.p. and the labeling's round count is fixed by
/// its schedule, so only this table can see a labeling coin that moved.
constexpr construction_pin kSetupPins[] = {
    {"gnp/beep-waves", 38, 0, 8, 0, 0x0ULL},
    {"gnp/collision-wave", 7, 186, 0, 0, 0x42c7b9d8cc98fdf7ULL},
    {"gnp/decay-epochs", 210, 1053, 0, 0, 0x42c7b9d8cc98fdf7ULL},
    {"gnp/labeling", 1148, 570, 0, 0, 0x99e48de2c49325d7ULL},
    {"layered/beep-waves", 72, 0, 16, 0, 0x0ULL},
    {"layered/collision-wave", 11, 389, 0, 0, 0xd1329f6214ec7ee4ULL},
    {"layered/decay-epochs", 378, 3080, 0, 0, 0xd1329f6214ec7ee4ULL},
    {"layered/labeling", 1344, 774, 0, 0, 0xbd45a485fba35126ULL},
};

TEST(GoldenPins, SetupPhasesReproduceTheirRecordedResults) {
  const auto layered = fixed_layered();
  const auto gnp = fixed_gnp();

  std::vector<construction_case> cases;
  for (const auto& [prefix, g] :
       {std::pair<std::string, const graph::graph*>{"layered", &layered},
        {"gnp", &gnp}}) {
    core::options o = opts(19, true);
    o.prm = core::params::fast();
    const auto built = core::build_gst_distributed_single(*g, 0, o, true);
    const level_t ecc = graph::bfs(*g, 0).max_level;
    cases.emplace_back(prefix + "/labeling", [g, built](bool ff) {
      const auto lab = core::run_vdist_labeling(
          *g, built.forests[0], built.parent_rank, built.stretch_child, 0,
          core::params::fast(), 20, ff);
      return construction_pin{nullptr, lab.rounds, lab.transmissions,
                              static_cast<std::int64_t>(lab.unlabeled), 0,
                              fnv1a(lab.vdist)};
    });
    // Two rounds past the eccentricity: the wave keeps beeping at the edge.
    cases.emplace_back(prefix + "/collision-wave", [g, ecc](bool) {
      const auto lay = core::run_collision_wave_bfs(*g, 0, ecc + 2);
      return construction_pin{nullptr, lay.rounds, lay.transmissions, 0, 0,
                              fnv1a(lay.level)};
    });
    cases.emplace_back(prefix + "/decay-epochs", [g, ecc](bool ff) {
      const auto lay = core::run_decay_epoch_bfs(*g, 0, ecc, 0,
                                                 core::params::fast(), 21, ff);
      return construction_pin{nullptr, lay.rounds, lay.transmissions, 0, 0,
                              fnv1a(lay.level)};
    });
    cases.emplace_back(prefix + "/beep-waves", [g](bool) {
      const auto est = core::estimate_eccentricity_beep_waves(*g, 0);
      return construction_pin{nullptr, est.rounds, 0, est.estimate, 0, 0};
    });
  }
  expect_pins(kSetupPins, cases);
}

}  // namespace
}  // namespace rn
