// rn_serve — resident broadcast-as-a-service daemon.
//
// Hosts svc::service (worker pool + LRU result cache + Prometheus metrics)
// behind one of two newline-delimited-JSON transports:
//
//   rn_serve --socket /tmp/rn.sock [--workers 2] [--threads 0]
//            [--cache 128] [--max-trials 4096] [--cache-file cache.snap]
//            [--metrics-file metrics.prom]
//   rn_serve --stdio             # request lines on stdin, responses on stdout
//
// Request/response grammar: see src/svc/request.h and README "Service
// mode". A socket client whose request line passes 1 MiB without a newline
// gets a bad-request reply and is disconnected. The daemon exits after a
// {"method":"shutdown"} request (queued runs still complete) or, in stdio
// mode, at EOF. --metrics-file rewrites the Prometheus text exposition
// after every response and at exit, so a node-exporter-style textfile
// collector can scrape a daemon that has no HTTP port.
//
// SIGTERM / SIGINT drain gracefully: stop accepting new connections and
// request lines, finish every in-flight and queued run, write the metrics
// file one last time, and exit through the normal path — which snapshots
// the result cache to --cache-file (write-then-rename), so a supervised
// restart comes back warm.
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "experiments/experiments.h"
#include "sim/cli.h"
#include "svc/service.h"

#if defined(__unix__) || defined(__APPLE__)
#define RN_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace {

std::atomic<bool> g_stop{false};     ///< set by SIGTERM/SIGINT
std::atomic<int> g_listener{-1};     ///< socket-mode listener, for the handler

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
#if defined(__unix__) || defined(__APPLE__)
  // shutdown() is async-signal-safe: unblocks the accept() loop without
  // waiting for the next connection.
  const int fd = g_listener.load(std::memory_order_relaxed);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
#endif
}

void install_stop_handlers() {
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction sa {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads return EINTR and drain
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
#else
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
#endif
}

struct serve_options {
  std::string socket_path;  ///< empty = stdio transport
  std::string metrics_path;
  rn::svc::service_config svc;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " (--socket PATH | --stdio) [options]\n"
      << "  --socket PATH       listen on a Unix stream socket\n"
      << "  --stdio             serve stdin/stdout (one JSON object per line)\n"
      << "  --workers N         concurrent runs (default 2)\n"
      << "  --threads N         trial-pool threads per run (default 0 = auto)\n"
      << "  --cache N           result-cache entries (default 128)\n"
      << "  --max-trials N      per-request trial budget (default 4096)\n"
      << "  --cache-file PATH   load the result cache from this snapshot at\n"
      << "                      start (cold start if missing or corrupt) and\n"
      << "                      save it back at shutdown\n"
      << "  --metrics-file PATH rewrite Prometheus text here after each "
         "response\n";
  return 2;
}

/// Serialized rewrite of the metrics textfile (responses arrive from
/// several worker threads).
class metrics_file {
 public:
  metrics_file(std::string path, const rn::svc::service& svc)
      : path_(std::move(path)), svc_(svc) {}

  /// Rewrites the file with the current metrics. Without a path it returns
  /// before rendering them.
  void write() {
    if (path_.empty()) return;
    const std::string text = svc_.metrics_text();
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return;
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

 private:
  std::string path_;
  const rn::svc::service& svc_;
  std::mutex mu_;
};

int serve_stdio(rn::svc::service& svc, metrics_file& mf) {
  std::mutex out_mu;
  std::string line;
  // A stop signal interrupts the blocked getline (no SA_RESTART → EINTR →
  // failbit), so SIGTERM/SIGINT fall through to the drain below.
  while (!g_stop.load(std::memory_order_relaxed) &&
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    svc.submit(line, [&](const std::string& resp) {
      {
        std::lock_guard<std::mutex> lock(out_mu);
        std::cout << resp << "\n" << std::flush;
      }
      mf.write();
    });
    if (svc.shutdown_requested()) break;
  }
  svc.drain();
  mf.write();
  return 0;
}

#if RN_HAVE_UNIX_SOCKETS

/// Longest request line a connection may send (newline excluded); a client
/// that goes past it without a newline would otherwise grow the daemon's
/// memory without bound.
constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

enum class read_status { line, closed, too_long };

/// Reads one '\n'-terminated line from fd into out (without the newline).
/// `closed` on EOF/error; `too_long` once kMaxRequestLine bytes have
/// arrived without a newline, holding at most one chunk more than that.
read_status read_line(int fd, std::string& buf, std::string& out) {
  std::size_t scanned = 0;  // bytes of buf known to hold no newline
  for (;;) {
    const auto nl = buf.find('\n', scanned);
    if (nl != std::string::npos && nl <= kMaxRequestLine) {
      out.assign(buf, 0, nl);
      buf.erase(0, nl + 1);
      return read_status::line;
    }
    if (buf.size() > kMaxRequestLine) return read_status::too_long;
    scanned = buf.size();
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return read_status::closed;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

void send_line(int fd, std::mutex& mu, const std::string& resp) {
  std::lock_guard<std::mutex> lock(mu);
  std::string wire = resp;
  wire += "\n";
  std::size_t off = 0;
  while (off < wire.size()) {
#ifdef MSG_NOSIGNAL
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off, 0);
#endif
    if (n <= 0) return;  // peer went away; the run result stays cached
    off += static_cast<std::size_t>(n);
  }
}

int serve_socket(rn::svc::service& svc, metrics_file& mf,
                 const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "socket path too long: " << path << "\n";
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 16) != 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }

  g_listener.store(listener, std::memory_order_relaxed);

  std::mutex conns_mu;
  std::vector<std::thread> conns;
  std::vector<int> conn_fds;  // owned here; closed after every thread joins
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && !g_stop.load(std::memory_order_relaxed)) continue;
      break;  // listener shut down (in-band shutdown or stop signal)
    }
    std::lock_guard<std::mutex> lock(conns_mu);
    conn_fds.push_back(fd);
    conns.emplace_back([&svc, &mf, fd, listener] {
      auto write_mu = std::make_shared<std::mutex>();
      std::string buf;
      std::string line;
      for (;;) {
        const read_status st = read_line(fd, buf, line);
        if (st == read_status::closed) break;
        if (st == read_status::too_long) {
          send_line(fd, *write_mu,
                    rn::svc::error_response(
                        0, rn::svc::kBadRequest,
                        "request line exceeds " +
                            std::to_string(kMaxRequestLine) + " bytes"));
          break;  // the rest of the line is unread: drop the connection
        }
        if (line.empty()) continue;
        svc.submit(line, [&mf, fd, write_mu](const std::string& resp) {
          send_line(fd, *write_mu, resp);
          mf.write();
        });
        if (svc.shutdown_requested()) {
          // Stop accepting; in-flight and queued runs still complete.
          ::shutdown(listener, SHUT_RDWR);
          break;
        }
      }
      // Outstanding responses for this connection may still arrive from
      // worker threads; wait for them before retiring the connection.
      svc.drain();
      ::shutdown(fd, SHUT_RDWR);
    });
    if (svc.shutdown_requested()) break;
  }
  g_listener.store(-1, std::memory_order_relaxed);
  ::close(listener);
  {
    // A stop signal only interrupts the accept loop; connection threads may
    // still be blocked in recv(). Shut their sockets down so every thread
    // unwinds through its drain (fds stay valid until the joins below).
    std::lock_guard<std::mutex> lock(conns_mu);
    if (g_stop.load(std::memory_order_relaxed))
      for (const int fd : conn_fds) ::shutdown(fd, SHUT_RDWR);
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (auto& t : conns) t.join();
    for (const int fd : conn_fds) ::close(fd);
  }
  svc.drain();
  mf.write();
  ::unlink(path.c_str());
  return 0;
}

#endif  // RN_HAVE_UNIX_SOCKETS

}  // namespace

int main(int argc, char** argv) {
  rn::bench::register_all();

  using rn::sim::parse_flag;
  serve_options opt;
  bool stdio = false;
  auto value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--socket" && (v = value(i))) {
      opt.socket_path = v;
    } else if (arg == "--metrics-file" && (v = value(i))) {
      opt.metrics_path = v;
    } else if (arg == "--workers" && (v = value(i))) {
      if (!parse_flag(arg, v, opt.svc.workers)) return usage(argv[0]);
    } else if (arg == "--threads" && (v = value(i))) {
      if (!parse_flag(arg, v, opt.svc.threads_per_request))
        return usage(argv[0]);
    } else if (arg == "--cache" && (v = value(i))) {
      if (!parse_flag(arg, v, opt.svc.cache_entries)) return usage(argv[0]);
    } else if (arg == "--max-trials" && (v = value(i))) {
      if (!parse_flag(arg, v, opt.svc.max_trials)) return usage(argv[0]);
    } else if (arg == "--cache-file" && (v = value(i))) {
      opt.svc.cache_file = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (stdio == !opt.socket_path.empty()) return usage(argv[0]);

  install_stop_handlers();
  rn::svc::service svc(opt.svc);
  metrics_file mf(opt.metrics_path, svc);
  mf.write();
  if (stdio) return serve_stdio(svc, mf);
#if RN_HAVE_UNIX_SOCKETS
  return serve_socket(svc, mf, opt.socket_path);
#else
  std::cerr << "socket transport needs a POSIX platform; use --stdio\n";
  return 1;
#endif
}
