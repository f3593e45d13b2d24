// rn_submit — thin client for the rn_serve daemon.
//
//   rn_submit --socket /tmp/rn.sock --topology layered:depth=12,width=8
//             --protocol decay --trials 8 --seed 1 --json out.json
//   rn_submit --socket /tmp/rn.sock --experiment e1 --trials 2
//   rn_submit --socket /tmp/rn.sock --metrics
//   rn_submit --socket /tmp/rn.sock --list
//   rn_submit --socket /tmp/rn.sock --shutdown
//
// Builds one request line (the workload flags mirror `bench_suite`'s ad-hoc
// surface exactly), sends it, and prints the outcome. For runs the summary
// line is `cache=hit|miss key=... wall_ms=...` and --json writes the
// payload bytes — which are byte-identical to the file `bench_suite --json`
// writes for the same workload, whether the daemon served them from the
// cache or ran the experiment. Exits 1 on an error response (the structured
// code and message go to stderr), and 2 on bad usage or a bad numeric value
// ("bad value for FLAG: V"), before connecting.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>

#include "common/text.h"
#include "sim/cli.h"
#include "sim/json.h"

#if defined(__unix__) || defined(__APPLE__)
#define RN_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --socket PATH (workload | action)\n"
      << "workload (mirrors bench_suite):\n"
      << "  --experiment ID | --topology SPEC --protocol A[,B...]\n"
      << "  [--sweep SPEC] [--messages K] [--options OPT]\n"
      << "  [--trials N] [--seed S] [--priority P] [--json PATH]\n"
      << "actions:\n"
      << "  --metrics | --list | --shutdown\n";
  return 2;
}

/// --priority: an optional '-' before rn::parse_u64's digits, and the value
/// must fit an int. Otherwise prints "bad value for FLAG: V".
bool parse_int_flag(std::string_view flag, std::string_view v, int& out) {
  const bool negative = v.starts_with('-');
  std::uint64_t n = 0;
  const auto limit =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max()) + negative;
  if (!rn::parse_u64(v.substr(negative ? 1 : 0), n) || n > limit) {
    std::cerr << "bad value for " << flag << ": " << v << "\n";
    return false;
  }
  out = negative ? static_cast<int>(-static_cast<std::int64_t>(n))
                 : static_cast<int>(n);
  return true;
}

#if RN_HAVE_UNIX_SOCKETS

/// One round trip: send `line` + newline, read one newline-terminated
/// response. Returns false on transport failure.
bool round_trip(const std::string& path, const std::string& line,
                std::string& response) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  std::string wire = line;
  wire += "\n";
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  response.clear();
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
    const auto nl = response.find('\n');
    if (nl != std::string::npos) {
      response.resize(nl);
      ::close(fd);
      return true;
    }
  }
  ::close(fd);
  return false;
}

#endif  // RN_HAVE_UNIX_SOCKETS

}  // namespace

int main(int argc, char** argv) {
#if !RN_HAVE_UNIX_SOCKETS
  (void)argc;
  (void)argv;
  std::cerr << "rn_submit needs a POSIX platform (Unix sockets)\n";
  return 1;
#else
  std::string socket_path;
  std::string json_path;
  std::string method = "run";
  rn::sim::json_value req = rn::sim::json_value::object();
  req["id"] = 1;

  auto value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--socket" && (v = value(i))) {
      socket_path = v;
    } else if (arg == "--json" && (v = value(i))) {
      json_path = v;
    } else if (arg == "--metrics" || arg == "--list" || arg == "--shutdown") {
      method = arg.substr(2);
    } else if (arg == "--experiment" && (v = value(i))) {
      req["experiment"] = v;
      have_workload = true;
    } else if (arg == "--topology" && (v = value(i))) {
      req["topology"] = v;
      have_workload = true;
    } else if (arg == "--protocol" && (v = value(i))) {
      req["protocols"] = v;
    } else if (arg == "--sweep" && (v = value(i))) {
      req["sweep"] = v;
    } else if (arg == "--options" && (v = value(i))) {
      req["options"] = v;
    } else if ((arg == "--messages" || arg == "--trials" ||
                arg == "--seed") &&
               (v = value(i))) {
      std::uint64_t n = 0;
      if (!rn::sim::parse_flag(arg, v, n)) return 2;
      req[arg.substr(2)] = n;
    } else if (arg == "--priority" && (v = value(i))) {
      int priority = 0;
      if (!parse_int_flag(arg, v, priority)) return 2;
      req["priority"] = priority;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) return usage(argv[0]);
  if (method == "run" && !have_workload) return usage(argv[0]);
  req["method"] = method;

  std::string response;
  if (!round_trip(socket_path, req.dump(), response)) {
    std::cerr << "cannot reach rn_serve at " << socket_path << "\n";
    return 1;
  }

  rn::sim::json_value doc;
  try {
    doc = rn::sim::parse_json(response);
  } catch (const std::exception& ex) {
    std::cerr << "unparseable response: " << ex.what() << "\n";
    return 1;
  }
  const rn::sim::json_value* status = doc.find("status");
  if (status == nullptr || status->as_string() != "ok") {
    const rn::sim::json_value* code = doc.find("code");
    const rn::sim::json_value* err = doc.find("error");
    std::cerr << "error"
              << (code != nullptr ? " [" + code->as_string() + "]" : "") << ": "
              << (err != nullptr ? err->as_string() : response) << "\n";
    return 1;
  }

  if (method == "metrics") {
    const rn::sim::json_value* m = doc.find("metrics");
    std::cout << (m != nullptr ? m->as_string() : "");
    return 0;
  }
  if (method == "list") {
    const rn::sim::json_value* ids = doc.find("experiments");
    if (ids != nullptr)
      for (std::size_t i = 0; i < ids->size(); ++i)
        std::cout << ids->at(i).as_string() << "\n";
    return 0;
  }
  if (method == "shutdown") {
    std::cout << "shutdown acknowledged\n";
    return 0;
  }

  const rn::sim::json_value* cache = doc.find("cache");
  const rn::sim::json_value* key = doc.find("key");
  const rn::sim::json_value* wall = doc.find("wall_ms");
  std::cout << "cache=" << (cache != nullptr ? cache->as_string() : "?")
            << " wall_ms=" << (wall != nullptr ? wall->as_number() : 0.0)
            << "\n  key=" << (key != nullptr ? key->as_string() : "?") << "\n";
  if (!json_path.empty()) {
    const rn::sim::json_value* payload = doc.find("payload");
    if (payload == nullptr) {
      std::cerr << "response carries no payload\n";
      return 1;
    }
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << payload->as_string();  // exact bench_suite --json bytes
  }
  return 0;
#endif
}
