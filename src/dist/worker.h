// Worker-rank side of the distributed backend.
//
// A worker owns a contiguous range of the 32-block listener partition and
// holds only the in-edge partitioned CSR for that range
// (graph::partitioned_view). Per round it receives the global transmitter
// list, tallies hit words for its own listeners, and returns each owned
// block's first-touched listeners (in the canonical walk order) with their
// packed words. The coordinator applies blocks in ascending order, so the
// reception dispatch it then runs is byte-identical to a single-process run.
//
// The tally itself is radio::block_walker (radio/block_walk.h) bound to the
// rank's view — the same walker the in-process engine runs over all 32
// blocks. The coordinator binds one to a view of the resident graph when it
// covers a degraded rank's blocks locally.
#pragma once

namespace rn::dist {

/// Runs the worker protocol loop on `fd` until shutdown (returns 0) or the
/// coordinator disappears (returns 1). Invoked by tools/rn_dist when spawned
/// with --rn-worker-fd, and directly by fork-only test sessions.
int worker_main(int fd);

}  // namespace rn::dist
