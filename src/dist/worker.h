// Worker-rank side of the distributed backend.
//
// A worker owns a contiguous range of the 32-block listener partition of the
// plan the coordinator ships in each setup frame. For layered topologies it
// holds only the in-edge partitioned CSR for that range
// (graph::partitioned_view, filled in two replays of the generator); every
// other kind it rebuilds whole and walks the rows inside its range. It
// answers a setup frame twice: setup_ack with the node count and the owned
// entry count, which the coordinator checks against its own graph, as soon
// as it has them (between the view's count and scatter replays, or right
// after the rebuild), then setup_ready, with no payload, once the fill, row
// sort and walker load are done and before it reads another frame. Per
// round it receives the global transmitter list, tallies hit words for its own
// listeners, and returns each owned block's first-touched listeners (in the
// canonical walk order) with their packed words. The coordinator applies
// blocks in ascending order, so the reception dispatch it then runs is
// byte-identical to a single-process run.
//
// The tally itself is radio::block_walker (radio/block_walk.h) loaded with
// the rank's CSR — the same walker the in-process engine runs over all 32
// blocks. The coordinator loads one with the resident graph when it covers
// a degraded rank's blocks locally.
#pragma once

namespace rn::dist {

/// Runs the worker protocol loop on `fd` until shutdown (returns 0) or the
/// coordinator disappears (returns 1). Invoked by tools/rn_dist when spawned
/// with --rn-worker-fd, and directly by fork-only test sessions.
int worker_main(int fd);

}  // namespace rn::dist
