#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/check.h"
#include "core/params.h"
#include "dist/fault.h"
#include "dist/wire.h"
#include "graph/generators.h"
#include "graph/partitioned.h"
#include "graph/topology.h"
#include "radio/network.h"
#include "sim/engine.h"

namespace rn::dist {

namespace {

constexpr unsigned kBlocks = core::kChannelContractBlocks;

/// Checks that the plan a setup frame carries fits a graph of `n` nodes:
/// kBlocks + 1 ascending bounds from 0 to n.
void check_plan(const graph::block_plan& plan, std::size_t n) {
  RN_REQUIRE(plan.bounds.size() == kBlocks + 1 && plan.bounds.front() == 0 &&
                 plan.bounds.back() == n &&
                 std::is_sorted(plan.bounds.begin(), plan.bounds.end()),
             "dist setup plan does not fit the rank's graph");
}

}  // namespace

int worker_main(int fd) {
  // A coordinator that died leaves us writing into a closed socket; surface
  // that as an error return, not a SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);
  channel ch(fd);
  std::vector<std::uint8_t> payload;
  // The trial's adjacency — a streamed view (layered kinds) or the rebuilt
  // graph (every other kind) — kept only while the walker reads it in place.
  graph::partitioned_view view;
  graph::graph resident;
  std::unique_ptr<radio::block_walker> walker;  ///< live trial only
  std::vector<node_id> tx_ids;

  try {
    for (;;) {
      const msg_type type = ch.recv(payload);
      wire_reader in(payload);
      switch (type) {
        case msg_type::setup: {
          // The block range is explicit (not derived from rank/ranks): the
          // supervisor reassigns ranges mid-session when a rank degrades,
          // and a worker only ever needs to know which slice to rebuild.
          const std::uint32_t first = in.u32();
          const std::uint32_t last = in.u32();
          const std::uint32_t blocks = in.u32();
          const std::uint32_t threads = in.u32();
          const std::uint64_t seed = in.u64();
          const std::uint32_t spec_len = in.u32();
          const auto* text = in.raw(spec_len);
          RN_REQUIRE(blocks == kBlocks,
                     "dist setup block count does not match channel-v1");
          RN_REQUIRE(first < last && last <= kBlocks,
                     "dist setup block range invalid");
          graph::topology_spec spec = graph::parse_topology_spec(
              std::string(reinterpret_cast<const char*>(text), spec_len));
          spec.seed = seed;
          // The coordinator's plan of its resident graph: the rank never
          // derives it, so a layered view needs no degree replay.
          graph::block_plan plan;
          plan.bounds.resize(kBlocks + 1);
          for (node_id& bound : plan.bounds) bound = in.u32();
          // Free the previous adjacency first: a reassignment resync
          // re-sends setup mid-trial, and two need not coexist.
          walker.reset();
          view = graph::partitioned_view();
          resident = graph::graph();
          // The ack goes out as soon as the owned entry count is known, so
          // the coordinator's own trial setup runs beside the rest of this
          // fill; setup_ready below says the rank takes rounds.
          const auto ack = [&ch](std::size_t n, std::uint64_t owned_entries) {
            wire_writer w;
            w.u64(n);
            w.u64(owned_entries);
            ch.send(msg_type::setup_ack, w);
          };
          graph::csr_ref csr;
          if (spec.kind == "layered") {
            // Streamed straight from the generator: the family the
            // n = 10^8 point uses never materializes the full graph. The
            // stream repeats no edge, so the count pass's total is the
            // view's entry count.
            const graph::layered_options lo = graph::layered_options_of(spec);
            const std::size_t n = 1 + lo.depth * lo.width;
            check_plan(plan, n);
            view = graph::partitioned_view::from_plan(
                n, plan, first, last,
                [&lo](auto&& add) { graph::for_each_layered_edge(lo, add); },
                [&](std::uint64_t total) { ack(n, total); });
            csr = view.csr();
          } else {
            // Other kinds fit a rank whole, as they fit a single process.
            resident = graph::build_topology(spec);
            const std::size_t n = resident.node_count();
            check_plan(plan, n);
            ack(n, resident.offsets()[plan.bounds[last]] -
                       resident.offsets()[plan.bounds[first]]);
            csr = resident.csr();
          }
          walker = std::make_unique<radio::block_walker>();
          walker->bind(plan.bounds, first, last);
          walker->set_min_parallel_volume(
              radio::get_intra_trial_policy().min_parallel_volume);
          // A walker that copied the rank's rows into slices leaves the
          // source unread, so the rank holds its adjacency once.
          if (!walker->load(csr, threads)) {
            view = graph::partitioned_view();
            resident = graph::graph();
          }
          ch.send(msg_type::setup_ready, wire_writer{});
          break;
        }
        case msg_type::round: {
          RN_REQUIRE(walker != nullptr, "dist round before setup");
          const auto fault = static_cast<fault_kind>(in.u8());
          const std::uint32_t fault_arg_ms = in.u32();
          // Coordinator-injected faults (dist/fault.h). `kill` models a
          // crash before the round is processed; `drop` a wedged rank the
          // coordinator's deadline must catch; `truncate` death mid-write.
          if (fault == fault_kind::kill) ::_exit(42);
          if (fault == fault_kind::drop) break;
          const std::uint32_t m = in.u32();
          tx_ids.resize(m);
          std::memcpy(tx_ids.data(), in.raw(std::size_t{m} * 4),
                      std::size_t{m} * 4);
          walker->walk(tx_ids);
          wire_writer out;
          for (unsigned b = walker->first_block(); b < walker->last_block();
               ++b) {
            const std::span<const node_id> ids = walker->touched(b);
            out.u32(b);
            out.u32(static_cast<std::uint32_t>(ids.size()));
            out.raw(ids.data(), ids.size() * 4);
            for (const node_id v : ids) out.u64(walker->hit_word(v));
          }
          walker->clear_round();
          if (fault == fault_kind::delay)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fault_arg_ms));
          if (fault == fault_kind::truncate) {
            ch.send_truncated(msg_type::round_results, out,
                              out.bytes.size() / 2);
            ::_exit(43);
          }
          ch.send(msg_type::round_results, out);
          break;
        }
        case msg_type::teardown: {
          walker.reset();
          view = graph::partitioned_view();
          resident = graph::graph();
          wire_writer ack;
          ack.u64(static_cast<std::uint64_t>(sim::process_peak_rss_kb()));
          ch.send(msg_type::teardown_ack, ack);
          break;
        }
        case msg_type::shutdown:
          return 0;
        default:
          RN_REQUIRE(false, "dist worker received an unknown frame type");
      }
    }
  } catch (const std::exception&) {
    // Coordinator gone (EOF / EPIPE) or a protocol violation: exit nonzero
    // so the supervisor's waitpid sees an abnormal worker.
    return 1;
  }
}

}  // namespace rn::dist
