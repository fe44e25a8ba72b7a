// The serve_mix workload: stigd under an open-loop request generator.
//
// Each ladder rung spawns a fresh `stigd --jobs 2` on a private AF_UNIX
// socket, times spawn-to-first-answered-open_session (set-up), then sends a
// pre-planned, seeded request stream at a fixed rate over four connections
// from this one thread, which shares one CPU with every stigd thread
// (see run_serve). Every request is timed from when it was due, so a
// stall also charges the requests queued behind it. The verb mix is
// stigload's default (open:2, send:8, step:8, poll:6, report:1, close:1;
// 2-6 robots per session); a session lives on one connection, so its
// requests keep their order. An untraced run plays the nominal rung's plan
// several times, each on the next CPU, and keeps each request's least
// latency (see run_serve).
//
// Checks: every response is ok (BUSY counts as refused) and arrives; every
// polled delivery equals a payload sent to that robot in that session, and
// arrives once; stigd exits 0 on SIGTERM. The generator's own lateness is
// measured at every rung; a rung where it fell behind is invalid.
#include <fcntl.h>
#include <sched.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "encode/framing.hpp"
#include "par/seed.hpp"
#include "serve/wire.hpp"
#include "sim/rng.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace stig;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kSessionsPerConnection = 8;  // 32 live, as stigload.
constexpr std::size_t kQueueBound = 16;            // stigd's default.
constexpr std::size_t kMaxRobots = 6;
/// Verb weights: open, send, step, poll, report, close.
constexpr std::uint64_t kMix[6] = {2, 8, 8, 6, 1, 1};

/// The ladder. Latency is reported at the nominal (first) rate, about a
/// third of what stigd sustains on one CPU; capacity is the highest rate
/// whose p99 meets the limit without a growing backlog.
constexpr double kRates[] = {4000, 8000, 12000, 16000, 24000};
constexpr double kLatencyLimitUs = 2000.0;
/// A rung is invalid when the generator itself fell behind: its median
/// lateness exceeds a tenth of the latency limit.
constexpr double kGeneratorLateLimitUs = kLatencyLimitUs / 10;
/// An untraced run plays the nominal rung this many times, splitting its
/// budget between them.
constexpr std::size_t kNominalReplays = 8;
/// Shares of a traced run's budget: the nominal rung untraced and again
/// traced, and each ladder rung above the nominal.
constexpr double kTracedNominalShare = 0.4;
constexpr double kLadderShare = 0.05;
constexpr std::size_t kSetupProbes = 24;

/// Seeds the shape of the request stream (see ConnectionPlan).
constexpr std::uint64_t kShapeSeed = 0x5e7e;

constexpr const char* kVerbNames[6] = {"open", "send", "step",
                                       "poll", "report", "close"};

std::size_t verb_index(serve::Verb v) {
  return static_cast<std::size_t>(v) - 1;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// One planned request. `session` indexes the connection's sessions; the
/// server's id is filled in at send time.
struct Planned {
  serve::Request req;
  std::size_t conn = 0;
  std::size_t session = 0;
  Clock::time_point due, picked, sent, answered;
  double encode_ns = 0.0;  ///< Client-side encode_request.
  double decode_ns = 0.0;  ///< Client-side WireParser::feed share and
                           ///< decode_response.

  bool done = false;    ///< Answered, or given up on.
  bool failed = false;  ///< Answered wrongly, or never sendable.
};

struct Expected {
  std::uint64_t from;
  bool broadcast;
  std::vector<std::uint8_t> payload;
};

struct LiveSession {
  std::uint64_t robots = 0;
  std::optional<std::uint64_t> server_id;
  bool dead = false;  ///< Its open failed: its requests fail unsent.
  std::vector<std::vector<Expected>> expected;  ///< Per robot, undelivered.
};

/// Draws the request stream of one connection. Nothing here depends on a
/// response, so the plan is a pure function of its two seeds. The shape
/// seed draws the stream's shape: verb order, which session each request
/// goes to, session sizes and kinds, step lengths, payload lengths and
/// broadcast flags. The content seed draws what the requests carry: session
/// seeds, senders and addressees, payload bytes and polled robots. The
/// benchmark fixes the shape, as the chat workloads fix n and the message
/// sizes, so that a run's cost follows the program rather than the draw
/// (with the shape drawn too, the stepped instants per polled bit varied
/// by 14% between seeds).
class ConnectionPlan {
 public:
  ConnectionPlan(std::uint64_t shape_seed, std::uint64_t content_seed)
      : shape_(shape_seed), content_(content_seed), seed_(content_seed) {}

  Planned next() {
    std::uint64_t r = shape_.uniform_int(1, 26);
    std::size_t verb = 0;
    while (r > kMix[verb]) r -= kMix[verb++];
    if (live_.empty()) verb = 0;
    if (verb == 0 && live_.size() >= kSessionsPerConnection) verb = 1;
    std::size_t slot = 0;
    if (verb != 0) slot = shape_.uniform_int(0, live_.size() - 1);
    // A send into a full injection queue would be refused: step instead.
    if (verb == 1 && live_[slot].pending == kQueueBound) verb = 2;

    Planned p;
    serve::Request& q = p.req;
    if (verb == 0) {
      q.verb = serve::Verb::open_session;
      q.robots = shape_.uniform_int(2, kMaxRobots);
      q.seed = par::derive_seed(seed_, opens_++);
      if (shape_.flip(0.5)) q.flags |= serve::kOpenAsync;
      if (shape_.flip(0.5)) q.flags |= serve::kOpenVisibleIds;
      if (shape_.flip(0.25)) q.flags |= serve::kOpenSenseOfDirection;
      p.session = sessions_++;
      live_.push_back(Live{p.session, q.robots, 0});
      return p;
    }
    Live& s = live_[slot];
    p.session = s.session;
    switch (verb) {
      case 1: {
        q.verb = serve::Verb::send_message;
        q.from = content_.uniform_int(0, s.robots - 1);
        q.to = (q.from + 1 + content_.uniform_int(0, s.robots - 2)) % s.robots;
        if (shape_.flip(0.125)) q.flags |= serve::kSendBroadcast;
        q.payload.resize(shape_.uniform_int(1, 16));
        for (auto& b : q.payload) {
          b = static_cast<std::uint8_t>(content_.uniform_int(0, 255));
        }
        ++s.pending;
        break;
      }
      case 2:
        q.verb = serve::Verb::step;
        q.instants = shape_.uniform_int(8, 64);
        s.pending = 0;
        break;
      case 3:
        q.verb = serve::Verb::poll_delivery;
        q.robot = content_.uniform_int(0, s.robots - 1);
        break;
      case 4:
        q.verb = serve::Verb::get_report;
        break;
      default:
        q.verb = serve::Verb::close_session;
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(slot));
        break;
    }
    return p;
  }

 private:
  struct Live {
    std::size_t session;
    std::uint64_t robots;
    std::size_t pending;  ///< Sends since the session's last step.
  };
  sim::Rng shape_;
  sim::Rng content_;
  std::uint64_t seed_;
  std::uint64_t opens_ = 0;
  std::size_t sessions_ = 0;
  std::vector<Live> live_;
};

/// A stigd child process. The destructor kills and reaps one that is still
/// running, so no path leaves it behind.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& tag)
      : socket_(opt.out_dir + "/stigd." + tag + ".sock"),
        report_(opt.out_dir + "/stigd." + tag + ".report.json") {
    const std::string log = opt.out_dir + "/stigd." + tag + ".log";
    ::unlink(socket_.c_str());
    ::unlink(report_.c_str());
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execl(opt.stigd.c_str(), "stigd", "--socket", socket_.c_str(),
              "--jobs", "2", "--report", report_.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  [[nodiscard]] const std::string& report_path() const { return report_; }

  /// SIGTERMs the daemon and reaps it; true on a clean exit 0. Fills the
  /// child's peak RSS in MB.
  bool stop(double& peak_rss_mb) {
    ::kill(pid_, SIGTERM);
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    rusage ru{};
    while (true) {
      const pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
      if (r == pid_) break;
      if (r < 0 || Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  std::string report_;
  pid_t pid_ = -1;
};

/// Connects to `path`, retrying while the daemon starts; -1 on timeout.
int connect_unix(const std::string& path) {
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    // Yield rather than sleep: the daemon starting up shares this CPU, and
    // a sleep's wake-up on a virtualised host would add its own latency to
    // the set-up time.
    ::sched_yield();
  }
  return -1;
}

/// Writes all of `bytes`, waiting while a full socket buffer drains (the
/// generator then runs late, which the lateness figures show). A closed
/// peer fails the write instead of raising SIGPIPE.
bool write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, 1000) <= 0) return false;
      continue;
    }
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking request/response on a fresh connection (set-up probes).
std::optional<serve::Response> roundtrip(int fd, const serve::Request& req) {
  if (!write_all(fd, serve::encode_request(req))) return std::nullopt;
  serve::WireParser parser;
  while (true) {
    auto frames = parser.take_frames();
    if (!frames.empty()) return serve::decode_response(frames.front());
    std::uint8_t buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    parser.feed(
        std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
  }
}

/// Spawn to first answered open_session, on a connection that then stays
/// open for the rung. Returns the connection fd, or -1.
int start_and_probe(Daemon& d, double& setup_s, Result& res) {
  const Clock::time_point t0 = Clock::now();
  const int fd = connect_unix(d.socket_path());
  if (fd < 0) {
    res.fail("stigd did not accept on " + d.socket_path());
    return -1;
  }
  serve::Request open;
  open.verb = serve::Verb::open_session;
  open.robots = 2;
  const auto r = roundtrip(fd, open);
  setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!r || r->status != serve::Status::ok) {
    res.fail("set-up open_session was not answered ok");
    ::close(fd);
    return -1;
  }
  serve::Request close;
  close.verb = serve::Verb::close_session;
  close.session = r->session;
  const auto c = roundtrip(fd, close);
  if (!c || c->status != serve::Status::ok) {
    res.fail("set-up close_session was not answered ok");
  }
  return fd;
}

/// Server-side mean latency per verb (µs) from stigd's --report JSON, whose
/// histograms read "serve.lat.<verb>_ns":{"count":..,"sum":..,"mean":..}.
std::map<std::string, std::pair<double, double>> server_latency(
    const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::map<std::string, std::pair<double, double>> out;  // count, sum_ns
  for (int v = 1; v <= 6; ++v) {
    const std::string verb = serve::verb_name(static_cast<serve::Verb>(v));
    const std::string key = "\"serve.lat." + verb + "_ns\":{\"count\":";
    const std::size_t at = json.find(key);
    if (at == std::string::npos) continue;
    const double count = std::strtod(json.c_str() + at + key.size(), nullptr);
    const std::size_t sum_at = json.find("\"sum\":", at);
    if (sum_at == std::string::npos) continue;
    out[verb] = {count, std::strtod(json.c_str() + sum_at + 6, nullptr)};
  }
  return out;
}

/// What one rung measured. Latency figures are medians over one-second
/// windows of the rung, so a short host stall moves one window, not the
/// rung.
struct Rung {
  double rate = 0.0;
  bool valid = false;     ///< The generator kept up.
  bool meets = false;     ///< p99 within the limit, no growing backlog.
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t windows = 1;
  double p50_us = 0.0;     ///< Due to answered.
  double p99_us = 0.0;
  double late_p50_us = 0.0;  ///< Due to picked up by the generator.
  double late_p99_us = 0.0;
  std::size_t samples = 0;   ///< Answered requests.
  double latency_mean_us = 0.0;
  std::vector<double> latency_us;   ///< Per request, due to answered;
                                    ///< infinite when it failed.
  std::vector<double> step_rtt_us;  ///< Per step request, in plan order.
  std::vector<double> rtt_us[6];   ///< Sent to answered, per verb.
  std::vector<double> queued;      ///< send_message queue depths.
  std::size_t backlog_max = 0;
  std::size_t backlog_end = 0;     ///< Unanswered when the last one was due.
  std::uint64_t requests = 0, failed = 0, busy = 0, sends = 0;
  std::uint64_t instants = 0, payload_bits = 0, deliveries = 0;
  std::uint64_t frame_bits = 0, sent_payload_bits = 0;
  std::uint64_t flag_mismatch = 0;  ///< Deliveries whose broadcast flag
                                    ///< differs from the send's.
  double achieved = 0.0;  ///< Answered requests per second, first due to
                          ///< last answered.
  std::map<std::string, std::pair<double, double>> server;  ///< count, ns
};

class RungRunner {
 public:
  RungRunner(const Options& opt, std::size_t index, double rate,
             double seconds, SpanLog* log, Result& res)
      : opt_(opt), index_(index), log_(log), res_(res) {
    rung_.rate = rate;
    rung_.windows = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
    const auto n = std::max<std::size_t>(
        kConnections, static_cast<std::size_t>(rate * seconds));
    std::vector<ConnectionPlan> plans;
    for (std::size_t c = 0; c < kConnections; ++c) {
      const std::uint64_t stream = index * kConnections + c;
      plans.emplace_back(par::derive_seed(kShapeSeed, stream),
                         par::derive_seed(opt.seed, stream));
    }
    reqs_.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      Planned p = plans[k % kConnections].next();
      p.conn = k % kConnections;
      reqs_.push_back(std::move(p));
    }
  }

  Rung run() {
    Daemon daemon(opt_, std::to_string(index_));
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns_[c].fd = c == 0 ? start_and_probe(daemon, rung_.setup_s, res_)
                            : connect_unix(daemon.socket_path());
      if (conns_[c].fd < 0) {
        res_.fail("could not connect to stigd");
        close_all();
        return rung_;
      }
      ::fcntl(conns_[c].fd, F_SETFL, O_NONBLOCK);
    }
    drive();
    close_all();
    if (!daemon.stop(rung_.peak_rss_mb)) {
      res_.fail("stigd did not exit 0 on SIGTERM");
    }
    rung_.server = server_latency(daemon.report_path());
    finish();
    return std::move(rung_);
  }

 private:
  struct Conn {
    int fd = -1;
    serve::WireParser parser;
    std::deque<std::size_t> unsent;    ///< Picked, waiting for a session id.
    std::deque<std::size_t> inflight;  ///< Sent, awaiting the response.
    std::vector<LiveSession> sessions;
  };

  void close_all() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

  LiveSession& session_of(const Planned& p) {
    std::vector<LiveSession>& s = conns_[p.conn].sessions;
    if (s.size() <= p.session) s.resize(p.session + 1);
    return s[p.session];
  }

  void fail_request(Planned& p, const std::string& why) {
    if (!p.failed) {
      p.failed = true;
      ++rung_.failed;
    }
    if (!p.done) {
      p.done = true;
      ++answered_;
    }
    if (reported_++ < 5) res_.fail(why);
  }

  /// Sends every picked request whose session id is known, in order.
  void flush(std::size_t c) {
    Conn& conn = conns_[c];
    while (!conn.unsent.empty()) {
      Planned& p = reqs_[conn.unsent.front()];
      if (p.req.verb != serve::Verb::open_session) {
        LiveSession& s = session_of(p);
        if (s.dead) {
          fail_request(p, "request for a session whose open failed");
          conn.unsent.pop_front();
          continue;
        }
        if (!s.server_id) return;
        p.req.session = *s.server_id;
      }
      const Clock::time_point e0 = Clock::now();
      const std::vector<std::uint8_t> bytes = serve::encode_request(p.req);
      p.sent = Clock::now();
      p.encode_ns =
          std::chrono::duration<double, std::nano>(p.sent - e0).count();
      if (!write_all(conn.fd, bytes)) {
        fail_request(p, "write to stigd failed");
      } else {
        conn.inflight.push_back(conn.unsent.front());
      }
      conn.unsent.pop_front();
    }
  }

  void on_response(std::size_t c, const serve::Response& res,
                   Clock::time_point now, double decode_ns) {
    Conn& conn = conns_[c];
    if (conn.inflight.empty()) {
      res_.fail("response without a request");
      return;
    }
    Planned& p = reqs_[conn.inflight.front()];
    conn.inflight.pop_front();
    p.answered = now;
    p.decode_ns = decode_ns;
    if (res.verb != p.req.verb || res.status != serve::Status::ok) {
      if (res.status == serve::Status::busy) ++rung_.busy;
      if (p.req.verb == serve::Verb::open_session) session_of(p).dead = true;
      fail_request(p, std::string(serve::verb_name(p.req.verb)) +
                          " answered " + serve::status_name(res.status) +
                          ": " + res.detail);
      return;
    }
    p.done = true;
    ++answered_;
    LiveSession& s = session_of(p);
    switch (p.req.verb) {
      case serve::Verb::open_session:
        s.server_id = res.session;
        s.robots = p.req.robots;
        s.expected.assign(p.req.robots, {});
        break;
      case serve::Verb::send_message: {
        rung_.queued.push_back(static_cast<double>(res.queued));
        ++rung_.sends;
        const bool bc = (p.req.flags & serve::kSendBroadcast) != 0;
        for (std::uint64_t r = 0; r < s.robots; ++r) {
          if (bc ? r != p.req.from : r == p.req.to) {
            s.expected[r].push_back(Expected{p.req.from, bc, p.req.payload});
          }
        }
        rung_.sent_payload_bits += 8 * p.req.payload.size();
        rung_.frame_bits += encode::encode_frame(p.req.payload).size();
        break;
      }
      case serve::Verb::step:
        rung_.instants += p.req.instants;
        break;
      case serve::Verb::poll_delivery:
        for (const serve::WireDelivery& d : res.deliveries) {
          std::vector<Expected>& want = s.expected[p.req.robot];
          bool found = false;
          for (std::size_t i = 0; i < want.size() && !found; ++i) {
            if (want[i].from == d.from && want[i].payload == d.payload) {
              const bool bc = (d.flags & serve::kSendBroadcast) != 0;
              if (bc != want[i].broadcast) ++rung_.flag_mismatch;
              want.erase(want.begin() + static_cast<std::ptrdiff_t>(i));
              found = true;
            }
          }
          if (!found) {
            fail_request(p, "robot " + std::to_string(p.req.robot) +
                                " polled a payload not sent to it");
            return;
          }
          ++rung_.deliveries;
          rung_.payload_bits += 8 * d.payload.size();
        }
        break;
      case serve::Verb::get_report:
        if (res.body.empty() || res.body.front() != '{') {
          fail_request(p, "get_report body is not a JSON object");
        }
        break;
      default:
        break;
    }
  }

  void read_conn(std::size_t c) {
    Conn& conn = conns_[c];
    std::uint8_t buf[65536];
    while (true) {
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) {
        res_.fail("stigd closed a connection");
        closed_ = true;
        return;
      }
      const Clock::time_point f0 = Clock::now();
      conn.parser.feed(
          std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      auto frames = conn.parser.take_frames();
      const Clock::time_point f1 = Clock::now();
      const double feed_ns =
          std::chrono::duration<double, std::nano>(f1 - f0).count() /
          static_cast<double>(std::max<std::size_t>(frames.size(), 1));
      for (const std::vector<std::uint8_t>& body : frames) {
        const Clock::time_point d0 = Clock::now();
        const std::optional<serve::Response> res = serve::decode_response(body);
        const Clock::time_point d1 = Clock::now();
        const double codec =
            feed_ns + std::chrono::duration<double, std::nano>(d1 - d0).count();
        if (!res) {
          res_.fail("undecodable response frame");
          closed_ = true;
          return;
        }
        on_response(c, *res, d1, codec);
      }
      flush(c);
    }
  }

  void drive() {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rung_.rate));
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t k = 0; k < reqs_.size(); ++k) {
      reqs_[k].due = start + interval * static_cast<long>(k);
    }
    const Clock::time_point last_due =
        reqs_.empty() ? start : reqs_.back().due;
    const Clock::time_point drain_deadline =
        last_due + std::chrono::seconds(10);
    std::size_t next = 0;
    bool end_sampled = false;
    pollfd fds[kConnections];
    while (answered_ < reqs_.size() && !closed_) {
      const Clock::time_point now = Clock::now();
      while (next < reqs_.size() && reqs_[next].due <= Clock::now()) {
        Planned& p = reqs_[next];
        p.picked = Clock::now();
        conns_[p.conn].unsent.push_back(next);
        flush(p.conn);
        ++next;
      }
      const std::size_t backlog = next - answered_;
      rung_.backlog_max = std::max(rung_.backlog_max, backlog);
      if (next == reqs_.size() && !end_sampled) {
        rung_.backlog_end = backlog;
        end_sampled = true;
      }
      if (now > drain_deadline) {
        res_.fail(std::to_string(reqs_.size() - answered_) +
                  " request(s) never answered");
        break;
      }
      // Busy-poll, yielding to stigd's threads on the shared CPU: a
      // generator that sleeps between requests wakes late on a virtualised
      // host, and its lateness would swamp the daemon's.
      ::sched_yield();
      for (std::size_t c = 0; c < kConnections; ++c) {
        fds[c] = pollfd{conns_[c].fd, POLLIN, 0};
      }
      if (::poll(fds, kConnections, 0) > 0) {
        for (std::size_t c = 0; c < kConnections; ++c) {
          if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            read_conn(c);
          }
        }
      }
    }
  }

  void finish() {
    const std::size_t w_count = rung_.windows;
    std::vector<std::vector<double>> lat(w_count), late(w_count);
    std::vector<double> all;
    for (std::size_t k = 0; k < reqs_.size(); ++k) {
      const Planned& p = reqs_[k];
      const std::size_t w = k * w_count / reqs_.size();
      ++rung_.requests;
      if (!p.done) ++rung_.failed;  // Lost: never answered.
      if (!p.done || p.failed) {
        // Failed requests miss the latency limit by definition.
        lat[w].push_back(1e300);
        rung_.latency_us.push_back(1e300);
        if (p.req.verb == serve::Verb::step) rung_.step_rtt_us.push_back(1e300);
        continue;
      }
      const double rtt = us_between(p.sent, p.answered);
      lat[w].push_back(us_between(p.due, p.answered));
      rung_.latency_us.push_back(lat[w].back());
      if (p.req.verb == serve::Verb::step) rung_.step_rtt_us.push_back(rtt);
      all.push_back(lat[w].back());
      late[w].push_back(us_between(p.due, p.picked));
      rung_.rtt_us[verb_index(p.req.verb)].push_back(rtt);
      if (log_ != nullptr) add_spans(p, k + 1);
    }
    std::vector<double> p50, p99, late50, late99;
    for (std::size_t w = 0; w < w_count; ++w) {
      p50.push_back(quantile(lat[w], 0.50));
      p99.push_back(quantile(lat[w], 0.99));
      late50.push_back(quantile(late[w], 0.50));
      late99.push_back(quantile(late[w], 0.99));
    }
    rung_.p50_us = median(p50);
    rung_.p99_us = median(p99);
    rung_.late_p50_us = median(late50);
    rung_.late_p99_us = median(late99);
    rung_.samples = all.size();
    rung_.latency_mean_us = mean(all);
    Clock::time_point last = reqs_.front().due;
    for (const Planned& p : reqs_) last = std::max(last, p.answered);
    rung_.achieved =
        static_cast<double>(all.size()) /
        std::chrono::duration<double>(last - reqs_.front().due).count();
    rung_.valid = rung_.late_p50_us <= kGeneratorLateLimitUs;
    // Growing backlog: more requests outstanding when the last one was due
    // than the limit lets the rate keep in flight. A generator late beyond
    // the limit at p99 leaves the rung's p99 unable to show that stigd met
    // it.
    const double in_flight_cap = rung_.rate * kLatencyLimitUs / 1e6 + 8;
    rung_.meets = rung_.failed == 0 && rung_.p99_us <= kLatencyLimitUs &&
                  rung_.late_p99_us <= kLatencyLimitUs &&
                  static_cast<double>(rung_.backlog_end) <= in_flight_cap;
  }

  /// request = queue (generator lateness, waiting for the session id) +
  /// encode + round trip (socket, stigd, wire) + decode, all sharing the
  /// request's id.
  void add_spans(const Planned& p, std::uint64_t id) {
    const std::int64_t due = log_->to_ns(p.due);
    const std::int64_t sent = log_->to_ns(p.sent);
    const std::int64_t answered = log_->to_ns(p.answered);
    const auto enc = static_cast<std::int64_t>(p.encode_ns);
    const auto dec = static_cast<std::int64_t>(p.decode_ns);
    const std::int32_t top = log_->add("request", due, answered, -1, id);
    log_->add("client.queue", due, sent - enc, top, id);
    log_->add("client.encode", sent - enc, sent, top, id);
    log_->add("serve.roundtrip", sent, answered - dec, top, id);
    log_->add("client.decode", answered - dec, answered, top, id);
  }

  const Options& opt_;
  std::size_t index_;
  SpanLog* log_;
  Result& res_;
  Rung rung_;
  std::vector<Planned> reqs_;
  Conn conns_[kConnections];
  std::size_t answered_ = 0;
  std::size_t reported_ = 0;
  bool closed_ = false;
};

/// Whether two plays of one plan got the same replies: stigd's answers are
/// a pure function of the request sequence.
bool same_replies(const Rung& a, const Rung& b) {
  return a.instants == b.instants && a.payload_bits == b.payload_bits &&
         a.deliveries == b.deliveries &&
         a.sent_payload_bits == b.sent_payload_bits &&
         a.latency_us.size() == b.latency_us.size() &&
         a.step_rtt_us.size() == b.step_rtt_us.size();
}

/// One line per rung: the open-loop honesty figures at every rate.
std::string describe(const Rung& r) {
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "rate %.0f/s: %llu requests, achieved %.0f/s; per-second "
                "medians p50 %.1f us, p99 %.1f us, generator late p50 %.1f us,"
                " p99 %.1f us; backlog max %zu, at end %zu; %llu failed%s",
                r.rate, static_cast<unsigned long long>(r.requests), r.achieved,
                r.p50_us, r.p99_us, r.late_p50_us, r.late_p99_us,
                r.backlog_max, r.backlog_end,
                static_cast<unsigned long long>(r.failed),
                !r.valid ? " - INVALID: the generator fell behind"
                : r.meets ? " - meets the limit"
                          : " - misses the limit");
  return buf;
}

}  // namespace

Result run_serve(const Options& opt) {
  Result res;
  // The generator and every stigd thread (children inherit the mask) share
  // one CPU. Spread over vCPUs, each request needed cross-CPU wake-ups
  // through a shared hypervisor, and the median latency swung from 71 us
  // to 2.7 ms between runs with the host's load; on one CPU, which the
  // busy-polling generator keeps awake, it stayed near 80 us. The replays
  // of an untraced run each take the next CPU (see pin_to_cpu).
  if (!pin_to_cpu(0)) {
    res.notes.push_back("could not pin to one CPU; running unpinned");
  }
  std::vector<double> setup_s;
  const auto account = [&](const Rung& r) {
    setup_s.push_back(r.setup_s);
    res.attempted += r.requests;
    res.failed += r.failed;
    res.notes.push_back(describe(r));
  };

  // Set-up probes: spawn, first open_session answered, clean SIGTERM.
  for (std::size_t i = 0; i < kSetupProbes; ++i) {
    Daemon d(opt, "probe");
    double s = 0.0;
    const int fd = start_and_probe(d, s, res);
    if (fd >= 0) ::close(fd);
    double rss = 0.0;
    if (!d.stop(rss)) res.fail("stigd did not exit 0 on SIGTERM");
    setup_s.push_back(s);
  }

  // An untraced run replays the nominal plan kNominalReplays times, each
  // against a fresh stigd; a traced run plays it once before the ladder.
  const std::size_t replays = opt.trace ? 1 : kNominalReplays;
  const double nominal_s = opt.trace ? opt.seconds * kTracedNominalShare
                                     : opt.seconds / kNominalReplays;
  std::vector<Rung> plays;
  for (std::size_t r = 0; r < replays; ++r) {
    (void)pin_to_cpu(r);
    plays.push_back(
        RungRunner(opt, 0, kRates[0], nominal_s, nullptr, res).run());
    account(plays.back());
    if (!plays.back().valid) {
      res.fail("run invalid: the generator fell behind at the nominal rate");
      return res;
    }
    if (!same_replies(plays.back(), plays.front())) {
      res.fail("determinism: a replay of the nominal plan differed");
    }
  }
  const Rung& nominal = plays.front();
  if (nominal.flag_mismatch != 0) {
    res.notes.push_back(std::to_string(nominal.flag_mismatch) +
                        " deliveries carried a different broadcast flag than"
                        " their send (payload and sender matched)");
  }

  auto& m = res.metrics;
  const double instants_per_bit =
      ratio(static_cast<double>(nominal.instants),
            static_cast<double>(nominal.payload_bits));
  if (!opt.trace) {
    // Each request's latency, and each step's round trip, is the least
    // over the replays, which ran on different CPUs: the shared host slows
    // one CPU at a time by up to a third for seconds on end, and a replay
    // that met such a stretch is filtered out rather than moving the run.
    std::vector<double> latency = nominal.latency_us;
    std::vector<double> step_rtt = nominal.step_rtt_us;
    std::vector<double> rss;
    for (const Rung& r : plays) {
      for (std::size_t k = 0; k < latency.size(); ++k) {
        latency[k] = std::min(latency[k], r.latency_us[k]);
      }
      for (std::size_t k = 0; k < step_rtt.size(); ++k) {
        step_rtt[k] = std::min(step_rtt[k], r.step_rtt_us[k]);
      }
      rss.push_back(r.peak_rss_mb);
    }
    const double step_s =
        std::accumulate(step_rtt.begin(), step_rtt.end(), 0.0) / 1e6;
    m["setup_s"] = median(setup_s);
    m["instants_per_s"] = ratio(static_cast<double>(nominal.instants), step_s);
    m["payload_bits_per_s"] = ratio(m["instants_per_s"], instants_per_bit);
    m["instants_per_bit"] = instants_per_bit;
    m["peak_rss_mb"] = median(rss);
    m["req_p50_us"] = median(latency);
    res.notes.push_back(
        std::to_string(plays.size()) + " replays of " +
        std::to_string(nominal.requests) + " requests at " +
        std::to_string(static_cast<long>(nominal.rate)) + " req/s (" +
        std::to_string(step_rtt.size()) + " steps); " +
        std::to_string(nominal.instants) + " instants stepped, " +
        std::to_string(nominal.payload_bits) + " payload bits polled in " +
        std::to_string(nominal.deliveries) + " deliveries per replay; " +
        std::to_string(setup_s.size()) + " set-ups");
    return res;
  }

  // Traced: climb the ladder for capacity, then the nominal rung again
  // with every request's spans recorded, all on the first CPU.
  double capacity = nominal.meets ? nominal.rate : 0.0;
  for (std::size_t i = 1; i < std::size(kRates) && capacity == kRates[i - 1];
       ++i) {
    const Rung r =
        RungRunner(opt, i, kRates[i], opt.seconds * kLadderShare, nullptr, res)
            .run();
    account(r);
    if (r.valid && r.meets) capacity = r.rate;
  }
  SpanLog log;
  const Rung traced =
      RungRunner(opt, 0, kRates[0], nominal_s, &log, res).run();
  account(traced);
  // The traced rung replays the nominal plan: its replies must match.
  if (!same_replies(traced, nominal)) {
    res.fail("determinism: the traced replay of the nominal plan differed");
  }
  const std::map<std::string, double> self = log.self_ns_by_name();
  const auto self_ns = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };

  double server_count = 0.0, server_ns = 0.0;
  for (std::size_t v = 0; v < 6; ++v) {
    const std::string verb = serve::verb_name(static_cast<serve::Verb>(v + 1));
    m[std::string("serve.") + kVerbNames[v] + "_p50_us"] =
        quantile(nominal.rtt_us[v], 0.5);
    const auto it = nominal.server.find(verb);
    if (it == nominal.server.end()) continue;
    m[std::string("serve.server_") + kVerbNames[v] + "_mean_us"] =
        ratio(it->second.second, it->second.first) / 1e3;
    server_count += it->second.first;
    server_ns += it->second.second;
  }
  std::vector<double> rtt;
  for (const auto& v : nominal.rtt_us) {
    rtt.insert(rtt.end(), v.begin(), v.end());
  }
  m["core.setup_ms"] = m["serve.server_open_mean_us"] / 1e3;
  m["serve.req_p99_us"] = nominal.p99_us;
  m["serve.capacity_rps"] = capacity;
  m["serve.transport_us"] = mean(rtt) - ratio(server_ns, server_count) / 1e3;
  m["serve.codec_ns_per_req"] =
      (self_ns("client.encode") + self_ns("client.decode")) /
      static_cast<double>(traced.samples);
  const std::uint64_t send_attempts = nominal.sends + nominal.busy;
  m["serve.busy_ratio"] = ratio(static_cast<double>(nominal.busy),
                                static_cast<double>(send_attempts));
  m["serve.queue_depth_mean"] = mean(nominal.queued);
  m["serve.backlog_max"] = static_cast<double>(nominal.backlog_max);
  m["serve.gen_late_p99_us"] = nominal.late_p99_us;
  m["encode.frame_efficiency"] =
      ratio(static_cast<double>(nominal.sent_payload_bits),
            static_cast<double>(nominal.frame_bits));
  m["obs.trace_overhead_pct"] =
      100.0 * (traced.latency_mean_us - nominal.latency_mean_us) /
      nominal.latency_mean_us;
  res.notes.push_back(
      "capacity " + std::to_string(static_cast<long>(capacity)) +
      " req/s (p99 limit " +
      std::to_string(static_cast<long>(kLatencyLimitUs)) +
      " us); bases: busy " + std::to_string(nominal.busy) + " / sends " +
      std::to_string(send_attempts) + "; payload bits " +
      std::to_string(nominal.sent_payload_bits) + " / frame bits " +
      std::to_string(nominal.frame_bits) + "; client round trip mean " +
      std::to_string(mean(rtt)) + " us over " + std::to_string(rtt.size()) +
      " requests, stigd mean " +
      std::to_string(ratio(server_ns, server_count) / 1e3) + " us over " +
      std::to_string(static_cast<long>(server_count)));
  const std::string path =
      opt.out_dir + "/serve_mix.seed" + std::to_string(opt.seed) +
      ".trace.json";
  // The written trace holds the first requests (five spans each); the
  // self times above use every request.
  const std::size_t written = std::min<std::size_t>(log.size(), 100'000);
  if (log.write_chrome_trace(path, written)) {
    res.notes.push_back("trace: " + path + " (" + std::to_string(log.size()) +
                        " spans in memory, " + std::to_string(written) +
                        " written)");
  } else {
    res.fail("could not write " + path);
  }
  return res;
}

}  // namespace perfbench
