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

/// Builds the rank's partitioned view for a trial. Layered topologies — the
/// family the n = 10^8 point uses — stream straight from the generator and
/// never materialize the full graph in the worker; every other kind builds
/// the graph and filters it down (its footprint is the same as a
/// single-process trial, which those kinds already fit).
graph::partitioned_view build_view(const graph::topology_spec& spec,
                                   unsigned first_block, unsigned last_block) {
  if (spec.kind == "layered") {
    // Mirror of the topology registry's layered parameter mapping.
    graph::layered_options lo;
    lo.depth = static_cast<std::size_t>(spec.param("depth", 8));
    lo.width = static_cast<std::size_t>(spec.param("width", 8));
    lo.edge_prob = spec.param("edge_prob", lo.edge_prob);
    lo.intra_prob = spec.param("intra_prob", lo.intra_prob);
    lo.seed = spec.seed;
    const std::size_t n = 1 + lo.depth * lo.width;
    return graph::partitioned_view::from_edge_source(
        n,
        [&lo](const graph::edge_sink& sink) {
          graph::for_each_layered_edge(lo, sink);
        },
        kBlocks, first_block, last_block);
  }
  const graph::graph g = graph::build_topology(spec);
  return graph::partitioned_view::from_graph(
      g, graph::compute_block_plan(g, kBlocks), first_block, last_block);
}

}  // namespace

int worker_main(int fd) {
  // A coordinator that died leaves us writing into a closed socket; surface
  // that as an error return, not a SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);
  channel ch(fd);
  std::vector<std::uint8_t> payload;
  graph::partitioned_view view;
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
          // Free the previous slice first: a reassignment resync re-sends
          // setup mid-trial, and two slices need not coexist.
          walker.reset();
          view = graph::partitioned_view();
          view = build_view(spec, first, last);
          walker = std::make_unique<radio::block_walker>();
          walker->bind(view.row_start().data(), view.adjacency().data(),
                       view.plan().bounds, first, last);
          walker->set_min_parallel_volume(
              radio::get_intra_trial_policy().min_parallel_volume);
          walker->set_team(threads);
          wire_writer ack;
          ack.u64(view.node_count());
          ack.u64(view.adjacency().size());
          ch.send(msg_type::setup_ack, ack);
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
          for (unsigned b = view.first_block(); b < view.last_block(); ++b) {
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
