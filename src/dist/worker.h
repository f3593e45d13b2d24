// Worker-rank side of the distributed backend, and the setup frames the
// coordinator streams to it.
//
// A worker owns a contiguous range of the 32-block listener partition of the
// plan the coordinator ships in each setup frame, and holds only the in-edge
// partitioned CSR for that range (graph::partitioned_view) — for every
// topology kind. It never builds a graph: the coordinator streams the rows of
// the rank's listeners straight out of its own resident CSR (setup_stream),
// and the rank fills its view from them as they arrive. It answers with
// setup_ready, with no payload, once the fill and walker load are done and
// before it reads another frame. Per round it receives the global transmitter
// list, tallies hit words for its own listeners, and returns each owned
// block's first-touched listeners (in the canonical walk order) with their
// packed words. The coordinator applies blocks in ascending order, so the
// reception dispatch it then runs is byte-identical to a single-process run.
//
// The tally itself is radio::block_walker (radio/block_walk.h) loaded with
// the rank's view — the same walker the in-process engine runs over all 32
// blocks. The coordinator loads one with the resident graph when it covers
// a degraded rank's blocks locally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dist/wire.h"
#include "graph/graph.h"
#include "graph/partitioned.h"

namespace rn::dist {

/// Bound on the offsets and neighbors a rows frame carries, in 4-byte words
/// (1 MiB): a listener whose own row is longer travels alone in its frame.
inline constexpr std::size_t kRowsFrameWords = std::size_t{1} << 18;

/// One rank's setup, sent frame by frame out of the coordinator's graph:
///   setup        [u32 first block][u32 last block][u32 blocks]
///                [u32 walk threads][u32 plan bound x (blocks + 1)]
///   row_lengths  [u32 first row][u32 k][u32 length x k] — for every node
///                u in order, how many of u's neighbors the rank owns
///   rows         [u32 first listener][u32 k][u32 offset x (k + 1)]
///                [node_id neighbor x (offset[k] - offset[0])] — the full
///                rows of the rank's listeners, ascending
/// The offsets and neighbors are written from the graph's own arrays, and no
/// rows frame carries more than kRowsFrameWords words of them unless one
/// listener's row alone does. Every u32 array starts 4-byte aligned in the
/// payload, so the rank reads the arrays in place.
class setup_stream {
 public:
  /// `g` and `plan` must outlive the stream.
  setup_stream(const graph::graph& g, const graph::block_plan& plan,
               unsigned first_block, unsigned last_block, unsigned threads);

  /// Sends the next frame on `ch` (`scratch` holds row lengths while they
  /// go out); returns whether frames remain.
  bool send_next(channel& ch, std::vector<std::uint32_t>& scratch);

 private:
  enum class stage : std::uint8_t { setup, lengths, rows, done };

  const graph::graph* g_;
  const graph::block_plan* plan_;
  unsigned first_block_;
  unsigned last_block_;
  unsigned threads_;
  stage stage_ = stage::setup;
  node_id next_ = 0;  ///< next row (lengths) or listener (rows) to send
};

/// Runs the worker protocol loop on `fd` until shutdown (returns 0) or the
/// coordinator disappears or breaks the protocol (returns 1). Invoked by
/// tools/rn_dist when spawned with --rn-worker-fd, and directly by fork-only
/// test sessions.
int worker_main(int fd);

}  // namespace rn::dist
