// E8 — coding layer: RLNC decode overhead, FEC fountain overhead, and the
// generation-size ablation behind [DEV-7] / paper footnote 5.
//
// (No radio rounds are simulated here, so there is nothing for the
// fast-forward engine to skip — this is the one experiment that does not opt
// into sim::use_fast_forward().)
//
// Claims: random GF(2) combinations decode after k + O(1) innovative packets
// (expected overhead ~1.6 packets, no coupon-collector term); splitting k
// messages into generations of size b trades header bits (b per packet) for
// a small extra-packet overhead per generation.
#include <cstdint>
#include <string>
#include <vector>

#include "coding/gf2.h"
#include "coding/rlnc.h"
#include "experiments/experiments.h"
#include "sim/experiment.h"

namespace rn::bench {

void register_e8(sim::registry& reg) {
  sim::experiment e;
  e.id = "e8";
  e.title = "RLNC / FEC decoding overhead";
  e.claim =
      "decode at k + O(1) packets; generations trade header size for small "
      "per-batch overhead";
  e.profile = "n/a (pure coding)";
  e.default_trials = 50;
  e.metric_columns = {"packets_to_decode", "overhead", "packets_sent"};
  e.notes =
      "(overhead ~1.6 packets regardless of k — the expected number of "
      "non-innovative random GF(2) draws. gen=* rows: one lossy relay hop, "
      "packet loss 0.3 — smaller generations mean smaller coefficient headers "
      "at ~2 extra packets per batch.)";
  e.make_scenarios = [] {
    std::vector<sim::scenario> out;
    for (const std::size_t k : {2, 4, 8, 16, 32, 64, 128}) {
      sim::scenario sc;
      sc.label = "k=" + std::to_string(k);
      sc.params = {{"k", static_cast<double>(k)}};
      sc.run = [k](std::size_t, rng& r) {
        coding::gf2_decoder src(k, 1);
        for (std::size_t i = 0; i < k; ++i)
          src.insert(coding::gf2_vector::unit(k, i),
                     {static_cast<std::uint8_t>(i)});
        coding::gf2_decoder sink(k, 1);
        coding::gf2_vector coeffs;
        std::vector<std::uint8_t> payload;
        int packets = 0;
        while (!sink.complete()) {
          src.random_combination(r, coeffs, payload);
          sink.insert(coeffs, payload);
          ++packets;
        }
        sim::metrics m;
        m.set("packets_to_decode", packets);
        m.set("overhead", packets - static_cast<double>(k));
        return m;
      };
      out.push_back(std::move(sc));
    }
    // Generation ablation: deliver k = 64 messages through one lossy relay
    // hop (each packet lost with probability 0.3), coding within generations.
    const std::size_t k = 64;
    for (const std::size_t gen : {4, 8, 16, 32, 64}) {
      sim::scenario sc;
      sc.label = "gen=" + std::to_string(gen);
      sc.params = {{"generation_size", static_cast<double>(gen)},
                   {"header_bits", static_cast<double>(gen)}};
      sc.run = [k, gen](std::size_t, rng& r) {
        coding::batch_layout bl{k, gen};
        coding::gf2_vector coeffs;
        std::vector<std::uint8_t> payload;
        int sent = 0;
        for (std::size_t b = 0; b < bl.batch_count(); ++b) {
          const std::size_t dim = bl.size_of(b);
          coding::gf2_decoder src(dim, 1);
          for (std::size_t i = 0; i < dim; ++i)
            src.insert(coding::gf2_vector::unit(dim, i),
                       {static_cast<std::uint8_t>(i)});
          coding::gf2_decoder sink(dim, 1);
          while (!sink.complete()) {
            src.random_combination(r, coeffs, payload);
            ++sent;
            if (r.bernoulli(0.3)) continue;  // packet lost
            sink.insert(coeffs, payload);
          }
        }
        sim::metrics m;
        m.set("packets_sent", sent);
        return m;
      };
      out.push_back(std::move(sc));
    }
    return out;
  };
  reg.add(std::move(e));
}

}  // namespace rn::bench
