#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/check.h"
#include "core/params.h"
#include "dist/fault.h"
#include "radio/network.h"
#include "sim/engine.h"

namespace rn::dist {

namespace {

constexpr unsigned kBlocks = core::kChannelContractBlocks;

/// Row lengths per row_lengths frame. The coordinator computes them into a
/// scratch it keeps for the session, so they go out in 64 KiB frames.
constexpr std::size_t kLengthsPerFrame = std::size_t{1} << 14;

/// How many of u's neighbors lie in [lo, hi): rows are ascending, so only a
/// row that strays past an end of the range needs a search.
std::uint32_t owned_length(const graph::csr_ref& g, node_id u, node_id lo,
                           node_id hi) {
  const node_id* p = g.adj + g.row_start[u];
  const node_id* q = g.adj + g.row_start[u + 1];
  if (p == q || *p >= hi || q[-1] < lo) return 0;
  if (*p < lo) p = std::lower_bound(p, q, lo);
  if (q[-1] >= hi) q = std::lower_bound(p, q, hi);
  return static_cast<std::uint32_t>(q - p);
}

/// A u32 array of a received frame, read in place: every array a frame
/// carries starts 4-byte aligned, in a buffer from operator new.
const std::uint32_t* u32s(const std::uint8_t* p) {
  return reinterpret_cast<const std::uint32_t*>(p);
}

/// Reads the row_lengths and rows frames that follow a setup frame and
/// scatters each into `fill` as it arrives.
void receive_rows(channel& ch, std::vector<std::uint8_t>& payload,
                  graph::partitioned_view::filler& fill) {
  while (!fill.rows_done()) {
    const msg_type type = ch.recv(payload);
    wire_reader in(payload);
    const node_id first = in.u32();
    const std::uint32_t k = in.u32();
    if (!fill.lengths_done()) {
      RN_REQUIRE(type == msg_type::row_lengths,
                 "dist setup expected a row_lengths frame");
      fill.add_lengths(first, {u32s(in.raw(std::size_t{k} * 4)), k});
    } else {
      RN_REQUIRE(type == msg_type::rows, "dist setup expected a rows frame");
      const std::size_t offset_count = std::size_t{k} + 1;
      const std::uint32_t* offsets = u32s(in.raw(offset_count * 4));
      const std::size_t bytes = in.remaining();
      RN_REQUIRE(bytes % 4 == 0, "dist rows frame splits a neighbor id");
      fill.add_rows(first, {offsets, offset_count},
                    {u32s(in.raw(bytes)), bytes / 4});
    }
  }
}

}  // namespace

setup_stream::setup_stream(const graph::graph& g,
                           const graph::block_plan& plan, unsigned first_block,
                           unsigned last_block, unsigned threads)
    : g_(&g),
      plan_(&plan),
      first_block_(first_block),
      last_block_(last_block),
      threads_(threads) {}

bool setup_stream::send_next(channel& ch, std::vector<std::uint32_t>& scratch) {
  const node_id n = plan_->bounds.back();
  const node_id lo = plan_->bounds[first_block_];
  const node_id hi = plan_->bounds[last_block_];
  const graph::csr_ref csr = g_->csr();
  switch (stage_) {
    case stage::setup: {
      // The block range is explicit (not derived from rank/ranks): the
      // supervisor reassigns ranges mid-session when a rank degrades.
      wire_writer w;
      w.u32(first_block_);
      w.u32(last_block_);
      w.u32(plan_->blocks());
      w.u32(threads_);
      for (const node_id bound : plan_->bounds) w.u32(bound);
      ch.send(msg_type::setup, w);
      stage_ = stage::lengths;
      next_ = 0;
      return true;
    }
    case stage::lengths: {
      const auto k = static_cast<node_id>(
          std::min<std::size_t>(n - next_, kLengthsPerFrame));
      scratch.resize(std::size_t{k} + 2);
      scratch[0] = next_;
      scratch[1] = k;
      for (node_id i = 0; i < k; ++i)
        scratch[2 + i] = owned_length(csr, next_ + i, lo, hi);
      const wire_part frame{scratch.data(), scratch.size() * 4};
      ch.send(msg_type::row_lengths, {&frame, 1});
      next_ += k;
      if (next_ < n) return true;
      stage_ = lo < hi ? stage::rows : stage::done;
      next_ = lo;
      return stage_ == stage::rows;
    }
    case stage::rows: {
      // The longest listener run [v0, v1) whose offsets and neighbors fit
      // the frame bound, and never less than one listener.
      const node_id v0 = next_;
      const auto words = [&](node_id v1) {
        return std::uint64_t{csr.row_start[v1]} - csr.row_start[v0] + v1 -
               v0 + 1;
      };
      node_id v1 = v0 + 1;
      node_id top = hi;
      while (v1 < top) {
        const node_id mid = v1 + (top - v1 + 1) / 2;
        if (words(mid) <= kRowsFrameWords)
          v1 = mid;
        else
          top = mid - 1;
      }
      const std::uint32_t head[2] = {v0, v1 - v0};
      const wire_part frame[3] = {
          {head, sizeof(head)},
          {csr.row_start + v0, (std::size_t{v1} - v0 + 1) * 4},
          {csr.adj + csr.row_start[v0],
           std::size_t{csr.row_start[v1] - csr.row_start[v0]} * 4}};
      ch.send(msg_type::rows, frame);
      next_ = v1;
      if (next_ < hi) return true;
      stage_ = stage::done;
      return false;
    }
    case stage::done:
      break;
  }
  return false;
}

int worker_main(int fd) {
  // A coordinator that died leaves us writing into a closed socket; surface
  // that as an error return, not a SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);
  channel ch(fd);
  std::vector<std::uint8_t> payload;
  // The trial's view, kept only while the walker reads it in place.
  graph::partitioned_view view;
  std::unique_ptr<radio::block_walker> walker;  ///< live trial only
  // Round results, written in place; grows to the largest round and stays.
  std::vector<std::uint8_t> results;

  try {
    for (;;) {
      const msg_type type = ch.recv(payload);
      wire_reader in(payload);
      switch (type) {
        case msg_type::setup: {
          const std::uint32_t first = in.u32();
          const std::uint32_t last = in.u32();
          const std::uint32_t blocks = in.u32();
          const std::uint32_t threads = in.u32();
          RN_REQUIRE(blocks == kBlocks,
                     "dist setup block count does not match channel-v1");
          RN_REQUIRE(first < last && last <= kBlocks,
                     "dist setup block range invalid");
          graph::block_plan plan;
          plan.bounds.resize(kBlocks + 1);
          for (node_id& bound : plan.bounds) bound = in.u32();
          RN_REQUIRE(plan.bounds.front() == 0 &&
                         std::is_sorted(plan.bounds.begin(),
                                        plan.bounds.end()),
                     "dist setup plan bounds do not ascend from 0");
          // Free the previous adjacency first: a reassignment resync
          // re-sends setup mid-trial, and two need not coexist.
          walker.reset();
          view = graph::partitioned_view();
          graph::partitioned_view::filler fill(plan, first, last);
          receive_rows(ch, payload, fill);
          view = std::move(fill).finish();
          walker = std::make_unique<radio::block_walker>();
          walker->bind(plan.bounds, first, last);
          walker->set_min_parallel_volume(
              radio::get_intra_trial_policy().min_parallel_volume);
          // A walker that copied the rank's rows into slices leaves the
          // view unread, so the rank holds its adjacency once.
          if (!walker->load(view.csr(), threads))
            view = graph::partitioned_view();
          ch.send(msg_type::setup_ready, wire_writer{});
          break;
        }
        case msg_type::round: {
          RN_REQUIRE(walker != nullptr, "dist round before setup");
          const auto fault = static_cast<fault_kind>(in.u32());
          const std::uint32_t fault_arg_ms = in.u32();
          // Coordinator-injected faults (dist/fault.h). `kill` models a
          // crash before the round is processed; `drop` a wedged rank the
          // coordinator's deadline must catch; `truncate` death mid-write.
          if (fault == fault_kind::kill) ::_exit(42);
          if (fault == fault_kind::drop) break;
          // The ids are walked where they lie, once the payload is known to
          // hold as many as the frame claims.
          const std::uint32_t m = in.u32();
          walker->walk({u32s(in.raw(std::size_t{m} * 4)), m});
          // Per owned block: [u32 block][u32 count][ids][u64 hit words].
          std::size_t size = 0;
          for (unsigned b = walker->first_block(); b < walker->last_block();
               ++b)
            size += 8 + walker->touched(b).size() * 12;
          if (results.size() < size) results.resize(size);
          std::uint8_t* out = results.data();
          for (unsigned b = walker->first_block(); b < walker->last_block();
               ++b) {
            const std::span<const node_id> ids = walker->touched(b);
            const std::uint32_t head[2] = {
                b, static_cast<std::uint32_t>(ids.size())};
            std::memcpy(out, head, sizeof(head));
            out += sizeof(head);
            if (!ids.empty()) std::memcpy(out, ids.data(), ids.size() * 4);
            out += ids.size() * 4;
            for (const node_id v : ids) {
              const std::uint64_t word = walker->hit_word(v);
              std::memcpy(out, &word, 8);
              out += 8;
            }
          }
          walker->clear_round();
          if (fault == fault_kind::delay)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fault_arg_ms));
          const wire_part frame{results.data(), size};
          if (fault == fault_kind::truncate) {
            ch.send_truncated(msg_type::round_results, {&frame, 1}, size / 2);
            ::_exit(43);
          }
          ch.send(msg_type::round_results, {&frame, 1});
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
