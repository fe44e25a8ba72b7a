// stigload — deterministic traffic generator for the stigd serving layer.
//
// Drives a seed-derived mix of open_session / send_message / step /
// poll_delivery / get_report / close_session requests against one of three
// transports:
//
//   --inproc        an in-process serve::ShardedRegistry, still going
//                   through the full wire codec (encode → parse → decode on
//                   both directions) so the byte protocol is exercised
//                   end to end without a socket;
//   --socket PATH   an already-running stigd on an AF_UNIX socket;
//   --spawn BIN     forks BIN as a stigd child on a private socket, runs
//                   the workload, SIGTERMs it and requires a clean exit.
//
// The whole request sequence is a pure function of --seed: every draw
// (verb choice, session pick, payload bytes, step widths) comes from one
// seeded generator, and the per-session seeds are par::derive_seed(seed, i)
// — so two runs with the same seed against deterministic servers produce
// identical *transcripts* (delivery bytes, statuses, queue depths, engine
// clocks). The transcript is digested with FNV-1a; --verify-deterministic
// replays the workload twice in-proc — once at --jobs, once single-worker —
// and fails unless digests, delivery counts and the gated (non-`_ns`)
// server metrics all match. That ctest case is the acceptance check for
// "replies never depend on the worker count".
//
// Exit codes: 0 success; 1 determinism/protocol violation; 2 usage error;
// 3 runtime or I/O error.
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "flag_number.hpp"
#include "obs/metric_keys.hpp"
#include "obs/metrics.hpp"
#include "par/seed.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"
#include "sim/rng.hpp"

namespace {

using namespace stig;

constexpr int kExitOk = 0;
constexpr int kExitMismatch = 1;
constexpr int kExitUsage = 2;
constexpr int kExitRuntime = 3;

struct Args {
  std::uint64_t seed = 1;
  std::uint64_t requests = 2000;
  double seconds = 0.0;  ///< > 0 switches to a wall-clock budget.
  std::size_t sessions = 32;
  std::size_t robots_max = 6;
  std::size_t jobs = 0;
  std::size_t shards = 8;
  std::size_t queue_bound = 16;
  std::string mix = "open:2,send:8,step:8,poll:6,report:1,close:1";
  bool inproc = false;
  std::string socket_path;
  std::string spawn;
  std::string transcript;
  std::string report;
  bool verify_deterministic = false;
  bool help = false;
};

void print_help() {
  std::cout <<
      "stigload — deterministic traffic generator for stigd\n\n"
      "transport (pick one; default --inproc):\n"
      "  --inproc             in-process ShardedRegistry through the full\n"
      "                       wire codec (no socket)\n"
      "  --socket PATH        connect to a running stigd\n"
      "  --spawn STIGD_BIN    fork stigd on a private socket, SIGTERM it\n"
      "                       after the run and require exit 0\n\n"
      "workload:\n"
      "  --seed S             root seed; the whole request sequence is a\n"
      "                       pure function of it (default 1)\n"
      "  --requests N         request budget (default 2000)\n"
      "  --seconds T          run for T wall seconds instead (smoke mode;\n"
      "                       not deterministic across machines)\n"
      "  --sessions N         target live sessions (default 32)\n"
      "  --robots-max N       robots per opened session in [2, N]\n"
      "                       (default 6)\n"
      "  --mix SPEC           verb weights, e.g. open:2,send:8,step:8,\n"
      "                       poll:6,report:1,close:1 (the default)\n"
      "  --jobs N / --shards K / --queue-bound Q\n"
      "                       inproc registry knobs (as stigd)\n\n"
      "output & checks:\n"
      "  --transcript FILE    write the transcript lines (\"-\" = stdout)\n"
      "  --report FILE        write the client report JSON (\"-\" = stdout)\n"
      "  --verify-deterministic\n"
      "                       run the workload twice in-proc (--jobs, then\n"
      "                       1 worker); fail on any transcript or gated-\n"
      "                       metric divergence\n\n"
      "exit codes: 0 success; 1 determinism or protocol violation;\n"
      "2 usage error; 3 runtime error\n";
}

bool parse(int argc, char** argv, Args& a) {
  const auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto num = [&](auto& out) {
      const char* v = need(i);
      return v != nullptr && cli::parse_number(flag, v, out);
    };
    const auto str = [&](std::string& out) {
      const char* v = need(i);
      if (!v) return false;
      out = v;
      return true;
    };
    if (flag == "--help" || flag == "-h") {
      a.help = true;
    } else if (flag == "--seed") {
      if (!num(a.seed)) return false;
    } else if (flag == "--requests") {
      if (!num(a.requests)) return false;
    } else if (flag == "--seconds") {
      if (!num(a.seconds)) return false;
    } else if (flag == "--sessions") {
      if (!num(a.sessions)) return false;
    } else if (flag == "--robots-max") {
      if (!num(a.robots_max)) return false;
    } else if (flag == "--jobs") {
      if (!num(a.jobs)) return false;
    } else if (flag == "--shards") {
      if (!num(a.shards)) return false;
    } else if (flag == "--queue-bound") {
      if (!num(a.queue_bound)) return false;
    } else if (flag == "--mix") {
      if (!str(a.mix)) return false;
    } else if (flag == "--inproc") {
      a.inproc = true;
    } else if (flag == "--socket") {
      if (!str(a.socket_path)) return false;
    } else if (flag == "--spawn") {
      if (!str(a.spawn)) return false;
    } else if (flag == "--transcript") {
      if (!str(a.transcript)) return false;
    } else if (flag == "--report") {
      if (!str(a.report)) return false;
    } else if (flag == "--verify-deterministic") {
      a.verify_deterministic = true;
    } else {
      std::cerr << "unknown flag: " << flag << " (see --help)\n";
      return false;
    }
  }
  return true;
}

/// Verb weights parsed from --mix, indexed open/send/step/poll/report/close.
struct Mix {
  std::array<std::uint64_t, 6> weight{2, 8, 8, 6, 1, 1};
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t w : weight) t += w;
    return t;
  }
};

std::optional<Mix> parse_mix(const std::string& spec) {
  static constexpr std::array<const char*, 6> kNames{
      "open", "send", "step", "poll", "report", "close"};
  Mix mix;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) return std::nullopt;
    const std::string name = item.substr(0, colon);
    std::uint64_t w = 0;
    if (!cli::parse_number("--mix", item.substr(colon + 1), w)) {
      return std::nullopt;
    }
    bool known = false;
    for (std::size_t v = 0; v < kNames.size(); ++v) {
      if (name == kNames[v]) {
        mix.weight[v] = w;
        known = true;
      }
    }
    if (!known) return std::nullopt;
  }
  if (mix.total() == 0) return std::nullopt;
  return mix;
}

/// FNV-1a 64-bit, the transcript digest.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void feed(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ULL;
    }
  }
};

bool write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One request/response channel; both transports speak full wire frames.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Encodes, ships, and decodes; nullopt on transport/protocol failure.
  virtual std::optional<serve::Response> roundtrip(
      const serve::Request& req) = 0;
};

/// Wire-codec loopback onto an owned ShardedRegistry.
class InprocTransport final : public Transport {
 public:
  explicit InprocTransport(const serve::ShardedOptions& options)
      : registry_(options) {}

  std::optional<serve::Response> roundtrip(
      const serve::Request& req) override {
    request_parser_.feed(serve::encode_request(req));
    const auto frames = request_parser_.take_frames();
    if (frames.size() != 1) return std::nullopt;
    const auto decoded = serve::decode_request(frames.front());
    if (!decoded) return std::nullopt;
    response_parser_.feed(serve::encode_response(registry_.apply(*decoded)));
    const auto replies = response_parser_.take_frames();
    if (replies.size() != 1) return std::nullopt;
    return serve::decode_response(replies.front());
  }

  [[nodiscard]] serve::ShardedRegistry& registry() { return registry_; }

 private:
  serve::ShardedRegistry registry_;
  serve::WireParser request_parser_;
  serve::WireParser response_parser_;
};

/// Blocking AF_UNIX client.
class SocketTransport final : public Transport {
 public:
  ~SocketTransport() override {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }

  std::optional<serve::Response> roundtrip(
      const serve::Request& req) override {
    if (fd_ < 0 || !write_all(fd_, serve::encode_request(req))) {
      return std::nullopt;
    }
    while (true) {
      auto frames = parser_.take_frames();
      if (!frames.empty()) return serve::decode_response(frames.front());
      std::uint8_t buf[65536];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return std::nullopt;
      }
      parser_.feed(
          std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  serve::WireParser parser_;
};

/// Everything one workload run produces.
struct RunResult {
  bool ok = false;
  std::uint64_t requests_sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t busy = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> transcript;
  std::string error;
};

std::string hex_bytes(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  return out;
}

/// Runs the seed-determined request mix against `transport`. Every random
/// draw happens before the request ships, and bookkeeping depends only on
/// response fields that are themselves deterministic — so the transcript
/// is a pure function of (seed, server behavior).
RunResult run_workload(const Args& args, const Mix& mix,
                       Transport& transport,
                       obs::MetricsRegistry& client_metrics) {
  RunResult out;
  sim::Rng rng(args.seed);
  struct Live {
    std::uint64_t id;
    std::uint64_t robots;
  };
  std::vector<Live> live;
  std::uint64_t opens = 0;
  Fnv digest;

  const auto note = [&](std::string line) {
    digest.feed(line);
    digest.feed("\n");
    out.transcript.push_back(std::move(line));
  };

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(args.seconds));
  const bool timed = args.seconds > 0.0;

  for (std::uint64_t i = 0; timed || i < args.requests; ++i) {
    if (timed && std::chrono::steady_clock::now() >= deadline) break;

    // Pick a verb from the weighted mix; without a session everything
    // degrades to open, and at the session target opens become sends.
    std::uint64_t r = rng.uniform_int(1, mix.total());
    std::size_t verb = 0;
    for (std::size_t v = 0; v < mix.weight.size(); ++v) {
      if (r <= mix.weight[v]) {
        verb = v;
        break;
      }
      r -= mix.weight[v];
    }
    if (live.empty()) verb = 0;
    if (verb == 0 && live.size() >= args.sessions) verb = 1;

    serve::Request req;
    std::size_t slot = 0;
    if (verb != 0) {
      slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::uint64_t>(live.size()) - 1));
      req.session = live[slot].id;
    }
    switch (verb) {
      case 0: {
        req.verb = serve::Verb::open_session;
        req.robots = rng.uniform_int(2, args.robots_max);
        req.seed = par::derive_seed(args.seed, opens++);
        req.flags = 0;
        if (rng.flip(0.5)) req.flags |= serve::kOpenAsync;
        if (rng.flip(0.5)) req.flags |= serve::kOpenVisibleIds;
        if (rng.flip(0.25)) req.flags |= serve::kOpenSenseOfDirection;
        break;
      }
      case 1: {
        const std::uint64_t n = live[slot].robots;
        req.verb = serve::Verb::send_message;
        req.from = rng.uniform_int(0, n - 1);
        req.to = (req.from + 1 + rng.uniform_int(0, n - 2)) % n;
        if (rng.flip(0.125)) req.flags |= serve::kSendBroadcast;
        const std::uint64_t len = rng.uniform_int(1, 16);
        req.payload.resize(len);
        for (auto& b : req.payload) {
          b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        break;
      }
      case 2:
        req.verb = serve::Verb::step;
        req.instants = rng.uniform_int(8, 64);
        break;
      case 3:
        req.verb = serve::Verb::poll_delivery;
        req.robot = rng.uniform_int(0, live[slot].robots - 1);
        req.max_messages = 0;
        break;
      case 4:
        req.verb = serve::Verb::get_report;
        break;
      default:
        req.verb = serve::Verb::close_session;
        break;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::optional<serve::Response> res = transport.roundtrip(req);
    const auto dt = std::chrono::steady_clock::now() - t0;
    if (!res) {
      out.error = "transport failure on request " + std::to_string(i);
      return out;
    }
    ++out.requests_sent;
    client_metrics.counter("load.sent").add();
    client_metrics
        .counter(std::string("load.status.") + status_name(res->status))
        .add();
    client_metrics
        .histogram(std::string("load.lat.") + verb_name(req.verb) + "_ns",
                   16.0, 48)
        .record(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count()));

    switch (req.verb) {
      case serve::Verb::open_session:
        if (res->status == serve::Status::ok) {
          live.push_back(Live{res->session, req.robots});
          note("o " + std::to_string(res->session) + " " +
               std::to_string(req.robots));
        } else {
          note(std::string("o ") + status_name(res->status));
        }
        break;
      case serve::Verb::send_message:
        if (res->status == serve::Status::busy) ++out.busy;
        note("s " + std::to_string(req.session) + " " +
             status_name(res->status) + " " + std::to_string(res->queued));
        break;
      case serve::Verb::step:
        note("t " + std::to_string(req.session) + " " +
             status_name(res->status) + " " +
             std::to_string(res->instants) + " " +
             std::to_string(res->flags));
        break;
      case serve::Verb::poll_delivery:
        for (const serve::WireDelivery& d : res->deliveries) {
          ++out.deliveries;
          note("d " + std::to_string(req.session) + " " +
               std::to_string(req.robot) + " " + std::to_string(d.from) +
               " " + std::to_string(static_cast<unsigned>(d.flags)) + " " +
               hex_bytes(d.payload));
        }
        break;
      case serve::Verb::get_report:
        // The report JSON carries machine-speed fields; only the status
        // joins the transcript.
        note("r " + std::to_string(req.session) + " " +
             status_name(res->status));
        break;
      default:
        if (res->status == serve::Status::ok) live.erase(live.begin() + slot);
        note("c " + std::to_string(req.session) + " " +
             status_name(res->status));
        break;
    }
  }
  out.digest = digest.h;
  out.ok = true;
  return out;
}

/// The gated (deterministic) subset of a flat metrics JSON object: every
/// top-level "key": value pair whose key has no informational marker
/// (src/obs/metric_keys.hpp). Values are either numbers or one-level
/// histogram objects, which is all write_json emits.
std::string gated_metric_lines(const std::string& json) {
  std::string out;
  std::size_t i = 0;
  while (i < json.size()) {
    const std::size_t q0 = json.find('"', i);
    if (q0 == std::string::npos) break;
    const std::size_t q1 = json.find('"', q0 + 1);
    if (q1 == std::string::npos) break;
    const std::string key = json.substr(q0 + 1, q1 - q0 - 1);
    std::size_t v = json.find(':', q1 + 1);
    if (v == std::string::npos) break;
    ++v;
    std::size_t end = v;
    if (v < json.size() && json[v] == '{') {
      end = json.find('}', v);
      if (end == std::string::npos) break;
      ++end;
    } else {
      while (end < json.size() && json[end] != ',' && json[end] != '}') {
        ++end;
      }
    }
    if (!obs::is_informational_key(key)) {
      out += key;
      out += '=';
      out += json.substr(v, end - v);
      out += '\n';
    }
    i = end;
  }
  return out;
}

std::string metrics_json(serve::ShardedRegistry& registry) {
  std::ostringstream ss;
  registry.write_metrics_json(ss);
  return ss.str();
}

serve::ShardedOptions inproc_options(const Args& args, std::size_t jobs) {
  serve::ShardedOptions sopt;
  sopt.shards = args.shards;
  sopt.jobs = jobs;
  sopt.limits.queue_bound = args.queue_bound;
  return sopt;
}

struct SpawnedDaemon {
  pid_t pid = -1;
  std::string socket_path;
};

std::optional<SpawnedDaemon> spawn_stigd(const Args& args) {
  SpawnedDaemon d;
  d.socket_path =
      "/tmp/stigload." + std::to_string(::getpid()) + ".sock";
  d.pid = ::fork();
  if (d.pid < 0) return std::nullopt;
  if (d.pid == 0) {
    const std::string jobs = std::to_string(args.jobs);
    const std::string shards = std::to_string(args.shards);
    const std::string queue = std::to_string(args.queue_bound);
    ::execl(args.spawn.c_str(), "stigd", "--socket", d.socket_path.c_str(),
            "--jobs", jobs.c_str(), "--shards", shards.c_str(),
            "--queue-bound", queue.c_str(), static_cast<char*>(nullptr));
    std::cerr << "error: exec " << args.spawn << ": "
              << std::strerror(errno) << "\n";
    ::_exit(127);
  }
  return d;
}

int finish_spawned(const SpawnedDaemon& d) {
  ::kill(d.pid, SIGTERM);
  int status = 0;
  if (::waitpid(d.pid, &status, 0) < 0) {
    std::cerr << "error: waitpid: " << std::strerror(errno) << "\n";
    return kExitRuntime;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "error: spawned stigd did not shut down cleanly (status "
              << status << ")\n";
    return kExitRuntime;
  }
  return kExitOk;
}

void write_report(const Args& args, const RunResult& run,
                  const obs::MetricsRegistry& client_metrics,
                  std::ostream& out) {
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "0x%016llx",
                static_cast<unsigned long long>(run.digest));
  out << "{\n  \"tool\": \"stigload\",\n  \"seed\": " << args.seed
      << ",\n  \"requests_sent\": " << run.requests_sent
      << ",\n  \"deliveries\": " << run.deliveries
      << ",\n  \"busy\": " << run.busy << ",\n  \"transcript_digest\": \""
      << digest_hex << "\",\n  \"metrics\": ";
  client_metrics.write_json(out);
  out << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return kExitUsage;
  if (args.help) {
    print_help();
    return kExitOk;
  }
  const std::optional<Mix> mix = parse_mix(args.mix);
  if (!mix) {
    std::cerr << "bad --mix spec: " << args.mix << "\n";
    return kExitUsage;
  }
  const int transports = static_cast<int>(args.inproc) +
                         static_cast<int>(!args.socket_path.empty()) +
                         static_cast<int>(!args.spawn.empty());
  if (transports > 1) {
    std::cerr << "--inproc, --socket and --spawn are mutually exclusive\n";
    return kExitUsage;
  }
  if (args.verify_deterministic &&
      (!args.socket_path.empty() || !args.spawn.empty())) {
    std::cerr << "--verify-deterministic needs the in-process transport\n";
    return kExitUsage;
  }
  if (args.robots_max < 2 || args.sessions == 0 || args.shards == 0) {
    std::cerr << "--robots-max must be >= 2, --sessions and --shards "
                 "positive\n";
    return kExitUsage;
  }

  // Determinism verification: the same workload at --jobs and at one
  // worker must agree on the transcript digest and every gated metric.
  if (args.verify_deterministic) {
    InprocTransport wide(inproc_options(args, args.jobs));
    InprocTransport narrow(inproc_options(args, 1));
    obs::MetricsRegistry ma;
    obs::MetricsRegistry mb;
    const RunResult a = run_workload(args, *mix, wide, ma);
    const RunResult b = run_workload(args, *mix, narrow, mb);
    if (!a.ok || !b.ok) {
      std::cerr << "error: " << (a.ok ? b.error : a.error) << "\n";
      return kExitRuntime;
    }
    const std::string ga = gated_metric_lines(metrics_json(wide.registry()));
    const std::string gb =
        gated_metric_lines(metrics_json(narrow.registry()));
    if (a.digest != b.digest || a.deliveries != b.deliveries ||
        a.transcript != b.transcript || ga != gb) {
      std::cerr << "DETERMINISM VIOLATION: jobs=" << args.jobs
                << " vs jobs=1 diverged (digests "
                << a.digest << " vs " << b.digest << ", deliveries "
                << a.deliveries << " vs " << b.deliveries << ")\n";
      return kExitMismatch;
    }
    std::cout << "deterministic: " << a.requests_sent << " requests, "
              << a.deliveries << " deliveries, digest 0x" << std::hex
              << a.digest << std::dec << " identical at jobs="
              << (args.jobs == 0 ? std::string("auto")
                                 : std::to_string(args.jobs))
              << " and jobs=1\n";
    return kExitOk;
  }

  std::optional<SpawnedDaemon> spawned;
  std::unique_ptr<Transport> transport;
  if (!args.socket_path.empty() || !args.spawn.empty()) {
    std::string path = args.socket_path;
    if (!args.spawn.empty()) {
      spawned = spawn_stigd(args);
      if (!spawned) {
        std::cerr << "error: fork failed\n";
        return kExitRuntime;
      }
      path = spawned->socket_path;
    }
    auto sock = std::make_unique<SocketTransport>();
    bool connected = false;
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (sock->connect(path)) {
        connected = true;
        break;
      }
      ::usleep(50 * 1000);
    }
    if (!connected) {
      std::cerr << "error: could not connect to " << path << "\n";
      if (spawned) (void)finish_spawned(*spawned);
      return kExitRuntime;
    }
    transport = std::move(sock);
  } else {
    transport = std::make_unique<InprocTransport>(
        inproc_options(args, args.jobs));
  }

  obs::MetricsRegistry client_metrics;
  const RunResult run = run_workload(args, *mix, *transport, client_metrics);
  transport.reset();  // Close the socket before stopping a spawned stigd.
  int exit_code = kExitOk;
  if (spawned) exit_code = finish_spawned(*spawned);
  if (!run.ok) {
    std::cerr << "error: " << run.error << "\n";
    return kExitRuntime;
  }

  if (!args.transcript.empty()) {
    const auto dump = [&](std::ostream& out) {
      for (const std::string& line : run.transcript) out << line << "\n";
    };
    if (args.transcript == "-") {
      dump(std::cout);
    } else {
      std::ofstream out(args.transcript);
      if (!out) {
        std::cerr << "error: could not write " << args.transcript << "\n";
        return kExitRuntime;
      }
      dump(out);
    }
  }
  if (!args.report.empty()) {
    if (args.report == "-") {
      write_report(args, run, client_metrics, std::cout);
    } else {
      std::ofstream out(args.report);
      if (!out) {
        std::cerr << "error: could not write " << args.report << "\n";
        return kExitRuntime;
      }
      write_report(args, run, client_metrics, out);
    }
  }
  std::cerr << "stigload: " << run.requests_sent << " request(s), "
            << run.deliveries << " delivery(ies), " << run.busy
            << " busy, digest 0x" << std::hex << run.digest << std::dec
            << "\n";
  return exit_code;
}
