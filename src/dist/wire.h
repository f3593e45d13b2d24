// Length-prefixed frame transport between the coordinator and worker ranks.
//
// One socketpair per rank; every message is [u32 length][u8 type][payload],
// length counting type + payload. Integers are little-endian (both ends are
// the same machine — the encoding is fixed anyway so byte counters and any
// future cross-machine transport mean the same thing).
//
// Every failure mode is a structured `wire_error` carrying a `wire_errc`,
// never undefined behavior and — when a deadline is armed — never a hang:
//
//   timeout  — the peer did not produce/consume bytes within the deadline
//              (a wedged rank becomes detectable instead of blocking forever)
//   closed   — EOF: at a frame boundary (peer exited between frames) or
//              mid-frame (peer died while writing; the channel is desynced
//              and must be discarded)
//   corrupt  — a frame that cannot be valid: zero-length body (no type
//              byte) or a length prefix above the configured cap
//   io       — errno-level read/write/poll failure (EPIPE included)
//
// All reads and writes go through poll()-based EINTR-safe loops; a deadline
// of 0 (the default) blocks indefinitely, which only the worker side uses
// (waiting for work is its idle state — a dead coordinator still turns into
// EOF). The coordinator arms per-phase deadlines (dist/session.cpp), so a
// rank that stops responding surfaces as `timeout` within that bound.
//
// Setup is a two-stage handshake: a rank answers a setup frame with
// setup_ack as soon as it knows its owned entry count (between the count and
// scatter replays of a streamed view), then with setup_ready once its fill
// and walker load are done. The coordinator reads every ack before the trial
// starts and each rank's ready before that rank's first round frame, so its
// own trial setup runs beside the ranks' fills.
//
// Round-trip shape per stepped round (see session.cpp): the coordinator
// writes the transmitter frame to every rank and only then reads results
// back rank by rank. Workers send nothing but the replies to the frame they
// were handed (two small ones for a setup), so the pattern cannot deadlock:
// each socketpair carries at most one in-flight request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace rn::dist {

/// Frame types. Values are part of the wire format; append only.
enum class msg_type : std::uint8_t {
  setup = 1,         ///< coord -> worker: block range, topology spec, plan
  setup_ack = 2,     ///< worker -> coord: node count + owned entry count,
                     ///< sent once counted, before the fill is done
  round = 3,         ///< coord -> worker: this round's transmitter ids
  round_results = 4, ///< worker -> coord: per-owned-block touched listeners
  teardown = 5,      ///< coord -> worker: trial over, free the partition
  teardown_ack = 6,  ///< worker -> coord: peak RSS + byte counters
  shutdown = 7,      ///< coord -> worker: exit the worker loop
  setup_ready = 8,   ///< worker -> coord, no payload: fill and walker load
                     ///< done, the rank takes rounds
};

/// Structured failure category of a channel operation.
enum class wire_errc : std::uint8_t {
  timeout = 1,  ///< deadline expired before the frame completed
  closed = 2,   ///< EOF — peer gone (boundary or mid-frame)
  corrupt = 3,  ///< impossible frame (no type byte / oversized length)
  io = 4,       ///< errno-level failure
};

/// Thrown by channel send/recv; derives from contract_error so pre-existing
/// catch sites keep working, while the supervisor dispatches on kind().
class wire_error : public contract_error {
 public:
  wire_error(wire_errc kind, const std::string& what)
      : contract_error(what), kind_(kind) {}
  [[nodiscard]] wire_errc kind() const { return kind_; }

 private:
  wire_errc kind_;
};

/// Append-only little-endian payload builder.
struct wire_writer {
  std::vector<std::uint8_t> bytes;

  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u32(std::uint32_t v) {
    const std::size_t at = bytes.size();
    bytes.resize(at + 4);
    std::memcpy(bytes.data() + at, &v, 4);
  }
  void u64(std::uint64_t v) {
    const std::size_t at = bytes.size();
    bytes.resize(at + 8);
    std::memcpy(bytes.data() + at, &v, 8);
  }
  void raw(const void* data, std::size_t len) {
    // An empty span may carry a null `data` (an empty vector's data()), and
    // memcpy from null is undefined even for zero bytes.
    if (len == 0) return;
    const std::size_t at = bytes.size();
    bytes.resize(at + len);
    std::memcpy(bytes.data() + at, data, len);
  }
};

/// Sequential payload reader; throws contract_error on truncation.
class wire_reader {
 public:
  explicit wire_reader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  /// Borrows `len` raw bytes (valid while the frame buffer lives).
  [[nodiscard]] const std::uint8_t* raw(std::size_t len);
  [[nodiscard]] std::size_t remaining() const { return size_ - at_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t at_ = 0;
};

/// One end of a rank's socketpair. Owns the fd; counts bytes both ways
/// (reported in the timing sidecar).
class channel {
 public:
  channel() = default;
  explicit channel(int fd) : fd_(fd) {}
  ~channel() { close(); }
  channel(const channel&) = delete;
  channel& operator=(const channel&) = delete;
  channel(channel&& o) noexcept { *this = std::move(o); }
  channel& operator=(channel&& o) noexcept;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool open() const { return fd_ >= 0; }
  void close();

  /// Whole-frame deadline applied independently to each send() and recv().
  /// 0 = block indefinitely (worker default). The supervisor arms per-phase
  /// values so a wedged peer surfaces as wire_errc::timeout, never a hang.
  void set_deadline_ms(unsigned ms) { deadline_ms_ = ms; }
  [[nodiscard]] unsigned deadline_ms() const { return deadline_ms_; }

  /// Largest frame body accepted by recv(); a length prefix above it is
  /// wire_errc::corrupt (a desynced or garbage peer would otherwise drive
  /// a multi-GB allocation). Defaults to the u32 maximum — real frames are
  /// bounded by the workload, tests lower it to pin the error path.
  void set_max_frame_bytes(std::uint32_t n) { max_frame_ = n; }

  /// Writes one frame (poll-gated, EINTR-safe, retrying partial writes).
  void send(msg_type type, const wire_writer& payload);
  /// Fault-injection only: writes a frame header promising the full payload
  /// but stops after `wire_bytes` payload bytes — the receiver sees a
  /// mid-frame EOF once this end closes. Models a peer dying mid-write.
  void send_truncated(msg_type type, const wire_writer& payload,
                      std::size_t wire_bytes);
  /// Reads one frame into `payload`; returns its type. Throws wire_error
  /// (timeout/closed/corrupt/io) — see the header comment.
  [[nodiscard]] msg_type recv(std::vector<std::uint8_t>& payload);

  [[nodiscard]] std::uint64_t bytes_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return received_; }

 private:
  int fd_ = -1;
  unsigned deadline_ms_ = 0;
  std::uint32_t max_frame_ = 0xffffffffu;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

/// Creates a connected pair of channels (AF_UNIX socketpair): first for the
/// coordinator, second for the worker.
[[nodiscard]] std::pair<channel, channel> make_channel_pair();

}  // namespace rn::dist
