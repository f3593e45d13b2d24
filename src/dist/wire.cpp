#include "dist/wire.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace rn::dist {

std::uint32_t wire_reader::u32() {
  RN_REQUIRE(at_ + 4 <= size_, "dist frame truncated (u32)");
  std::uint32_t v = 0;
  std::memcpy(&v, data_ + at_, 4);
  at_ += 4;
  return v;
}

std::uint64_t wire_reader::u64() {
  RN_REQUIRE(at_ + 8 <= size_, "dist frame truncated (u64)");
  std::uint64_t v = 0;
  std::memcpy(&v, data_ + at_, 8);
  at_ += 8;
  return v;
}

const std::uint8_t* wire_reader::raw(std::size_t len) {
  RN_REQUIRE(at_ + len <= size_, "dist frame truncated (raw)");
  const std::uint8_t* p = data_ + at_;
  at_ += len;
  return p;
}

channel& channel::operator=(channel&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    deadline_ms_ = o.deadline_ms_;
    max_frame_ = o.max_frame_;
    sent_ = o.sent_;
    received_ = o.received_;
    o.fd_ = -1;
  }
  return *this;
}

void channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

using steady = std::chrono::steady_clock;

/// One whole-frame deadline shared by every partial read/write of the frame.
/// `armed == false` blocks indefinitely.
struct frame_deadline {
  bool armed;
  steady::time_point until;

  explicit frame_deadline(unsigned ms)
      : armed(ms > 0), until(steady::now() + std::chrono::milliseconds(ms)) {}

  /// Remaining budget for poll(): -1 = infinite, 0 = already expired.
  [[nodiscard]] int remaining_ms() const {
    if (!armed) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          until - steady::now())
                          .count();
    return left <= 0 ? 0 : static_cast<int>(left);
  }
};

[[noreturn]] void throw_errno(const char* op) {
  throw wire_error(wire_errc::io, std::string("dist channel ") + op +
                                      " failed: " + std::strerror(errno));
}

/// Blocks (poll, EINTR-safe) until fd is ready for `events` or the deadline
/// expires; throws wire_errc::timeout on expiry.
void wait_ready(int fd, short events, const frame_deadline& dl,
                const char* phase) {
  for (;;) {
    const int budget = dl.remaining_ms();
    if (budget == 0)
      throw wire_error(wire_errc::timeout,
                       std::string("dist channel deadline expired (") + phase +
                           ")");
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rc = ::poll(&p, 1, budget);
    if (rc < 0) {
      if (errno == EINTR) continue;  // recompute the remaining budget
      throw_errno("poll");
    }
    if (rc > 0) return;
    // rc == 0: poll's own timeout — loop so the frame deadline (not poll's
    // millisecond rounding) decides when to give up.
  }
}

/// Writes every byte of `iov[0, count)`, resuming partial writes (the
/// entries are consumed in place).
void write_all(int fd, iovec* iov, int count, const frame_deadline& dl) {
  for (;;) {
    while (count > 0 && iov->iov_len == 0) {
      ++iov;
      --count;
    }
    if (count == 0) return;
    wait_ready(fd, POLLOUT, dl, "write");
    const ssize_t n = ::writev(fd, iov, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET)
        throw wire_error(wire_errc::closed,
                         "dist peer closed the channel (write)");
      throw_errno("write");
    }
    auto left = static_cast<std::size_t>(n);
    for (; count > 0 && left >= iov->iov_len; ++iov, --count)
      left -= iov->iov_len;
    if (left > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
}

/// Returns false on clean EOF before the first byte — the caller decides
/// whether that is a crash. EOF after any byte throws (mid-frame death
/// desynchronizes the framing; the channel must be discarded).
bool read_all(int fd, void* data, std::size_t len, const frame_deadline& dl) {
  auto* p = static_cast<std::uint8_t*>(data);
  bool any = false;
  while (len > 0) {
    wait_ready(fd, POLLIN, dl, "read");
    const ssize_t n = ::read(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET)
        throw wire_error(wire_errc::closed,
                         "dist peer reset the channel (read)");
      throw_errno("read");
    }
    if (n == 0) {
      if (any)
        throw wire_error(wire_errc::closed, "dist peer closed mid-frame");
      return false;
    }
    any = true;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void channel::send(msg_type type, const wire_writer& payload) {
  const wire_part part{payload.bytes.data(), payload.bytes.size()};
  send(type, {&part, 1});
}

void channel::send(msg_type type, std::span<const wire_part> parts) {
  send_truncated(type, parts, std::numeric_limits<std::size_t>::max());
}

void channel::send_truncated(msg_type type, std::span<const wire_part> parts,
                             std::size_t wire_bytes) {
  RN_REQUIRE(open(), "dist channel is closed");
  constexpr std::size_t kMaxParts = 8;
  RN_REQUIRE(parts.size() < kMaxParts, "dist frame has too many parts");
  std::size_t size = 0;
  for (const wire_part& p : parts) size += p.size;
  // Checked before any byte goes out: a length prefix that wrapped would
  // leave the peer reading the stream out of step with the frames.
  if (size > max_frame_)
    throw wire_error(wire_errc::corrupt,
                     "dist frame length " + std::to_string(size) +
                         " exceeds the " + std::to_string(max_frame_) +
                         "-byte cap (refused before sending)");
  const frame_deadline dl(deadline_ms_);
  const auto body = static_cast<std::uint32_t>(1 + size);
  std::uint8_t header[5];
  std::memcpy(header, &body, 4);
  header[4] = static_cast<std::uint8_t>(type);
  iovec iov[kMaxParts];
  int count = 0;
  iov[count++] = {header, sizeof(header)};
  std::size_t budget = std::min(wire_bytes, size);
  const std::size_t sent = sizeof(header) + budget;
  for (const wire_part& p : parts) {
    const std::size_t n = std::min(budget, p.size);
    // writev reads through iov_base only; the cast drops const for its type.
    iov[count++] = {const_cast<void*>(p.data), n};
    budget -= n;
  }
  write_all(fd_, iov, count, dl);
  sent_ += sent;
}

msg_type channel::recv(std::vector<std::uint8_t>& payload) {
  RN_REQUIRE(open(), "dist channel is closed");
  const frame_deadline dl(deadline_ms_);
  std::uint8_t header[5];
  if (!read_all(fd_, header, sizeof(header), dl))
    throw wire_error(wire_errc::closed, "dist peer closed the channel");
  std::uint32_t body = 0;
  std::memcpy(&body, header, 4);
  if (body < 1)
    throw wire_error(wire_errc::corrupt, "dist frame has no type byte");
  if (body - 1 > max_frame_)
    throw wire_error(wire_errc::corrupt,
                     "dist frame length " + std::to_string(body - 1) +
                         " exceeds the " + std::to_string(max_frame_) +
                         "-byte cap (corrupt or desynced peer)");
  payload.resize(body - 1);
  if (!payload.empty() &&
      !read_all(fd_, payload.data(), payload.size(), dl))
    throw wire_error(wire_errc::closed, "dist peer closed mid-frame");
  received_ += sizeof(header) + payload.size();
  return static_cast<msg_type>(header[4]);
}

std::pair<channel, channel> make_channel_pair() {
  int fds[2] = {-1, -1};
  RN_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
             std::string("socketpair failed: ") + std::strerror(errno));
  return {channel(fds[0]), channel(fds[1])};
}

}  // namespace rn::dist
