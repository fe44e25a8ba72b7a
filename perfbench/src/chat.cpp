// The ChatNetwork workloads: sliced_n192 and asyncn_n32.
//
// One repetition builds a fresh swarm from the seeded inputs, queues every
// message, steps to quiescence and checks that each payload reached its
// addressee byte-exact exactly once. Repetitions run until the time budget
// is spent; every repetition of one seed must produce the same
// deterministic counts (instants, bits, activations, allocations, ...).
//
// The layers are timed from outside: ChatNetwork construction (core), each
// ChatNetwork::step call (core), and probes of proto::relative_naming,
// geom::smallest_enclosing_circle and geom::VoronoiDiagram::compute on the
// t0 configuration, all in thread CPU time (see thread_cpu_ns). A traced
// run also attaches the obs::prof profiler and turns its per-step phase
// costs into wall-clock spans under each step span.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <numeric>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/chat_network.hpp"
#include "encode/framing.hpp"
#include "geom/geom_cache.hpp"
#include "geom/sec.hpp"
#include "geom/voronoi.hpp"
#include "obs/alloc_track.hpp"
#include "obs/prof.hpp"
#include "par/seed.hpp"
#include "proto/naming.hpp"
#include "sim/rng.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace stig;
using Clock = std::chrono::steady_clock;

struct ChatWorkload {
  const char* name;
  std::size_t robots;
  std::size_t messages;
  std::size_t payload_len;
  core::Synchrony synchrony;
  core::ProtocolKind protocol;
  sim::Time max_instants;
};

// Why these two: sliced_n192 is dominated by the O(n^2) per-instant
// classify/decode and the observation build, and its set-up (relative
// naming of every robot by every robot) is heavy in geometry; asyncn_n32
// has ~16 sparse activations per instant over ~12k instants, so the
// engine's per-instant loop carries real weight.
constexpr ChatWorkload kWorkloads[] = {
    {"sliced_n192", 192, 32, 16, core::Synchrony::synchronous,
     core::ProtocolKind::sliced, 100'000},
    {"asyncn_n32", 32, 64, 16, core::Synchrony::asynchronous,
     core::ProtocolKind::asyncn, 2'000'000},
};

struct Message {
  sim::RobotIndex from = 0;
  sim::RobotIndex to = 0;
  std::vector<std::uint8_t> payload;
};

struct Inputs {
  std::vector<geom::Vec2> positions;
  std::vector<Message> messages;
  core::ChatNetworkOptions options;
};

/// Jittered spacing-3 grid: pairwise separation stays above 2 at any n.
std::vector<geom::Vec2> jittered_grid(std::size_t n, sim::Rng& rng) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<geom::Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(geom::Vec2{
        static_cast<double>(i % side) * 3.0 + rng.uniform(-0.5, 0.5),
        static_cast<double>(i / side) * 3.0 + rng.uniform(-0.5, 0.5)});
  }
  return pts;
}

/// Senders cycle through shuffled rounds of all robots, so every robot
/// sends either floor or ceil of messages/n messages: the total simulated
/// time then varies little from seed to seed.
Inputs make_inputs(const ChatWorkload& w, std::uint64_t seed) {
  Inputs in;
  sim::Rng rng(par::derive_seed(seed, 0));
  in.positions = jittered_grid(w.robots, rng);
  std::vector<sim::RobotIndex> round;
  for (std::size_t k = 0; k < w.messages; ++k) {
    if (round.empty()) {
      for (std::size_t i = 0; i < w.robots; ++i) round.push_back(i);
      for (std::size_t i = round.size() - 1; i > 0; --i) {
        std::swap(round[i], round[rng.uniform_int(0, i)]);
      }
    }
    Message m;
    m.from = round.back();
    round.pop_back();
    m.to = (m.from + 1 + rng.uniform_int(0, w.robots - 2)) % w.robots;
    m.payload.resize(w.payload_len);
    for (auto& b : m.payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    in.messages.push_back(std::move(m));
  }
  in.options.synchrony = w.synchrony;
  in.options.protocol = w.protocol;
  in.options.seed = par::derive_seed(seed, 1);
  return in;
}

/// Counts that are a pure function of (code, seed).
struct Counts {
  std::uint64_t instants = 0;
  std::uint64_t payload_bits = 0;
  std::uint64_t activations = 0;
  std::uint64_t idle_activations = 0;
  std::uint64_t bits_sent = 0;
  std::uint64_t bits_decoded = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t messages_overheard = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  bool operator==(const Counts&) const = default;
};

struct Rep {
  Counts counts;
  std::uint64_t allocs = 0;  ///< operator-new calls inside step calls.
  double setup_ns = 0.0;       ///< Thread CPU time of construction.
  double setup_wall_ns = 0.0;
  std::uint64_t delivered_ok = 0;
};

/// Profiler phases in the order they are laid out inside a step span.
struct PhaseMap {
  const char* prof_name;
  const char* span_name;
};
constexpr PhaseMap kEnginePhases[] = {
    {"engine.sched", "sim.sched"},     {"engine.observe", "sim.observe"},
    {"engine.compute", "sim.compute"}, {"engine.commit", "sim.commit"},
    {"engine.emit", "sim.emit"},
};

/// Turns the profiler's per-step cost deltas into spans under `step`:
/// sim.step (the engine's inclusive time) holding its phases end to end,
/// then core.collect. Phase order inside the step is a layout, not the
/// execution order — observe and compute interleave per robot — but each
/// span's duration is that phase's summed cost in the step.
class PhaseSpans {
 public:
  explicit PhaseSpans(obs::prof::Profiler& prof) : prof_(prof) {
    const auto stats = prof_.stats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
      names_.push_back(stats[i].name);
    }
    prev_.assign(stats.size(), 0);
  }

  void on_step(SpanLog& log, std::int32_t step_span) {
    const auto stats = prof_.stats();
    std::vector<double> ns(stats.size());
    for (std::size_t i = 0; i < stats.size(); ++i) {
      ns[i] = static_cast<double>(stats[i].total_cycles - prev_[i]) / rate_;
      prev_[i] = stats[i].total_cycles;
    }
    // A copy: adding spans may reallocate the log.
    const std::int64_t start =
        log.spans()[static_cast<std::size_t>(step_span)].start_ns;
    std::int64_t t = start;
    const std::int64_t engine_ns = cost(ns, "engine.step");
    const std::int32_t sim = log.add("sim.step", t, t + engine_ns, step_span);
    for (const PhaseMap& p : kEnginePhases) {
      const std::int64_t d = cost(ns, p.prof_name);
      log.add(p.span_name, t, t + d, sim);
      t += d;
    }
    t = start + engine_ns;
    log.add("core.collect", t, t + cost(ns, "net.collect"), step_span);
  }

 private:
  std::int64_t cost(const std::vector<double>& ns, const char* name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (std::strcmp(names_[i], name) == 0) {
        return static_cast<std::int64_t>(ns[i]);
      }
    }
    return 0;
  }

  obs::prof::Profiler& prof_;
  std::vector<const char*> names_;
  std::vector<std::uint64_t> prev_;
  double rate_ = obs::prof::Profiler::cycles_per_ns();
};

/// Checks every delivery against the queued messages: each message must
/// arrive exactly once, byte-exact, at its addressee, and nothing else may
/// arrive. Returns the number of messages delivered correctly.
std::uint64_t verify(const core::ChatNetwork& net, const Inputs& in,
                     Result& res) {
  std::vector<bool> matched(in.messages.size(), false);
  std::uint64_t ok = 0;
  for (sim::RobotIndex i = 0; i < net.robot_count(); ++i) {
    for (const core::Delivery& d : net.received(i)) {
      bool found = false;
      for (std::size_t k = 0; k < in.messages.size() && !found; ++k) {
        const Message& m = in.messages[k];
        if (!matched[k] && m.to == i && d.to == i && !d.broadcast &&
            d.from == m.from && d.payload == m.payload) {
          matched[k] = true;
          found = true;
        }
      }
      if (found) {
        ++ok;
      } else {
        res.fail("robot " + std::to_string(i) +
                 " received a payload that was not sent to it (or twice)");
      }
    }
  }
  for (std::size_t k = 0; k < matched.size(); ++k) {
    if (!matched[k]) res.fail("message " + std::to_string(k) + " lost");
  }
  return ok;
}

/// Step latencies of the step loops so far, in thread CPU time (see
/// thread_cpu_ns), with the wall-clock step times beside them for the trace
/// and the notes.
///
/// Every repetition of a seed steps through the same instants, so
/// `best_ns[i]`, the least time any repetition took for instant i, is the
/// cost of that instant with the host's interference filtered out: the
/// shared host runs this code up to a third slower on one CPU at a time,
/// for seconds on end, with the thread on the CPU throughout (neighbours on
/// sibling hardware threads, memory bandwidth), which neither the CPU clock
/// nor a median over one run removes. Repetitions cycle over the CPUs (see
/// pin_to_cpu).
struct Samples {
  std::vector<double> step_ns;
  std::vector<double> step_wall_ns;
  std::vector<double> best_ns;
};

Rep run_rep(const ChatWorkload& w, const Inputs& in, SpanLog* log,
            Samples& samples, Result& res) {
  Rep rep;
  geom::GeomCache& cache = geom::GeomCache::local();
  // Every new swarm pays for its own geometry: start set-up cold.
  cache.clear();
  const std::uint64_t h0 = cache.hits();
  const std::uint64_t m0 = cache.misses();
  const std::int32_t rep_span = log != nullptr ? log->open("rep") : -1;

  std::unique_ptr<core::ChatNetwork> net;
  const double sc0 = thread_cpu_ns();
  const Clock::time_point s0 = Clock::now();
  {
    SpanScope s(log, "core.setup", rep_span);
    net = std::make_unique<core::ChatNetwork>(in.positions, in.options);
  }
  rep.setup_wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - s0).count();
  rep.setup_ns = thread_cpu_ns() - sc0;
  rep.counts.cache_hits = cache.hits() - h0;
  rep.counts.cache_misses = cache.misses() - m0;

  obs::prof::Profiler prof;
  std::optional<PhaseSpans> phases;
  if (log != nullptr) {
    net->attach_profiler(&prof);
    phases.emplace(prof);
  }
  const std::int32_t run_span =
      log != nullptr ? log->open("core.run", rep_span) : -1;

  // One span per message, send to delivery, sharing the message's id.
  std::vector<std::int32_t> msg_span(in.messages.size(), -1);
  std::vector<bool> msg_open(in.messages.size(), log != nullptr);
  std::vector<std::size_t> seen(net->robot_count(), 0);
  for (std::size_t k = 0; k < in.messages.size(); ++k) {
    const Message& m = in.messages[k];
    if (log != nullptr) msg_span[k] = log->open("message", run_span, k + 1);
    SpanScope s(log, "core.send", msg_span[k], k + 1);
    net->send(m.from, m.to, m.payload);
  }

  std::size_t instant = 0;
  while (!net->quiescent()) {
    if (net->engine().now() >= w.max_instants) {
      res.fail("no quiescence within " + std::to_string(w.max_instants) +
               " instants");
      break;
    }
    const std::uint64_t a0 = obs::alloc::snapshot().allocs;
    const double c0 = thread_cpu_ns();
    const Clock::time_point t0 = Clock::now();
    net->step();
    const Clock::time_point t1 = Clock::now();
    const double c1 = thread_cpu_ns();
    rep.allocs += obs::alloc::snapshot().allocs - a0;
    samples.step_ns.push_back(c1 - c0);
    samples.step_wall_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    if (instant == samples.best_ns.size()) {
      samples.best_ns.push_back(c1 - c0);
    } else {
      samples.best_ns[instant] = std::min(samples.best_ns[instant], c1 - c0);
    }
    ++instant;
    if (log == nullptr) continue;
    const std::int32_t step = log->add("core.step", log->to_ns(t0),
                                       log->to_ns(t1), run_span);
    phases->on_step(*log, step);
    for (std::size_t k = 0; k < in.messages.size(); ++k) {
      const Message& m = in.messages[k];
      const auto& got = net->received(m.to);
      for (std::size_t j = seen[m.to]; msg_open[k] && j < got.size(); ++j) {
        if (got[j].from == m.from && got[j].payload == m.payload) {
          log->close(msg_span[k]);
          msg_open[k] = false;
        }
      }
    }
    for (const Message& m : in.messages) {
      seen[m.to] = net->received(m.to).size();
    }
  }
  if (log != nullptr) {
    log->close(run_span);
    log->close(rep_span);
  }

  rep.delivered_ok = verify(*net, in, res);
  Counts& c = rep.counts;
  c.instants = net->engine().now();
  for (const Message& m : in.messages) c.payload_bits += 8 * m.payload.size();
  for (sim::RobotIndex i = 0; i < net->robot_count(); ++i) {
    const proto::ChatStats& s = net->stats(i);
    c.activations += s.activations;
    c.idle_activations += s.idle_activations;
    c.bits_sent += s.bits_sent;
    c.bits_decoded += s.bits_decoded;
    c.messages_received += s.messages_received;
    c.messages_overheard += s.messages_overheard;
  }
  return rep;
}

/// Adds each repetition's messages to `attempted`, and those not delivered
/// correctly to `failed`.
void count_outcomes(const std::vector<Rep>& reps, const Inputs& in,
                    Result& res) {
  for (const Rep& r : reps) {
    res.attempted += in.messages.size();
    res.failed += in.messages.size() - r.delivered_ok;
  }
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Median thread CPU time of `fn` over `reps` calls, in nanoseconds.
template <typename Fn>
double median_ns(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  for (std::size_t r = 0; r < reps; ++r) {
    const double a = thread_cpu_ns();
    fn();
    t.push_back(thread_cpu_ns() - a);
  }
  return median(t);
}

}  // namespace

bool is_chat_workload(const std::string& name) {
  for (const ChatWorkload& w : kWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

Result run_chat(const Options& opt) {
  const ChatWorkload* wp = nullptr;
  for (const ChatWorkload& w : kWorkloads) {
    if (opt.workload == w.name) wp = &w;
  }
  const ChatWorkload& w = *wp;
  const Inputs in = make_inputs(w, opt.seed);
  Result res;

  // A traced run first times the layer probes on the t0 configuration.
  SpanLog log;
  const std::size_t n = in.positions.size();
  const std::span<const geom::Vec2> t0{in.positions};
  double naming_ns = 0.0, sec_ns = 0.0, voronoi_ns = 0.0;
  if (opt.trace) {
    geom::GeomCache::local().clear();
    {
      SpanScope s(&log, "proto.naming");
      const double a = thread_cpu_ns();
      for (std::size_t i = 0; i < n; ++i) (void)proto::relative_naming(t0, i);
      naming_ns = (thread_cpu_ns() - a) / static_cast<double>(n);
    }
    {
      SpanScope s(&log, "geom.sec");
      sec_ns =
          median_ns(21, [&] { (void)geom::smallest_enclosing_circle(t0); });
    }
    {
      SpanScope s(&log, "geom.voronoi");
      voronoi_ns =
          median_ns(5, [&] { (void)geom::VoronoiDiagram::compute(t0); });
    }
  }

  // Repetitions until the budget is spent: two untraced at least, so the
  // determinism check has a pair. A traced run alternates untraced and
  // traced repetitions, so both see the same host conditions and their
  // difference is the tracing overhead.
  std::vector<Rep> reps, traced;
  Samples samples, traced_samples;
  std::size_t written_spans = 0;
  const Clock::time_point start = Clock::now();
  while (reps.size() < 2 || (opt.trace && traced.empty()) ||
         elapsed_s(start) < opt.seconds) {
    (void)pin_to_cpu(reps.size() + traced.size());
    if (opt.trace && reps.size() > traced.size()) {
      traced.push_back(run_rep(w, in, &log, traced_samples, res));
      if (traced.size() == 1) written_spans = log.size();
    } else {
      reps.push_back(run_rep(w, in, nullptr, samples, res));
    }
  }
  const Counts& c = reps[0].counts;
  std::vector<double> setup_s, setup_wall_s;
  for (const Rep& r : reps) {
    if (!(r.counts == c) || r.allocs != reps[0].allocs) {
      res.fail("determinism: two repetitions of seed " +
               std::to_string(opt.seed) + " gave different counts");
    }
    setup_s.push_back(r.setup_ns / 1e9);
    setup_wall_s.push_back(r.setup_wall_ns / 1e9);
  }
  for (const Rep& r : traced) {
    if (!(r.counts == c)) {
      res.fail("determinism: a traced repetition gave different counts");
    }
  }
  count_outcomes(reps, in, res);
  count_outcomes(traced, in, res);
  // Cheap set-ups get extra samples, so their median is steady too.
  const Clock::time_point extra = Clock::now();
  while (setup_s.size() < 15 && elapsed_s(extra) < 1.0) {
    geom::GeomCache::local().clear();
    const double a = thread_cpu_ns();
    { core::ChatNetwork net(in.positions, in.options); }
    setup_s.push_back((thread_cpu_ns() - a) / 1e9);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  res.notes.push_back(
      std::to_string(reps.size()) + " untraced and " +
      std::to_string(traced.size()) + " traced repetitions of " +
      std::to_string(c.instants) + " instants and " +
      std::to_string(c.payload_bits) + " payload bits; " +
      std::to_string(samples.step_ns.size()) + " untraced step calls, " +
      std::to_string(setup_s.size()) + " set-ups");
  // What the thread CPU clock leaves out shows here: on an idle host the
  // two columns agree.
  res.notes.push_back(
      "CPU time vs wall clock: step p50 " +
      std::to_string(quantile(samples.step_ns, 0.5) / 1e3) + " vs " +
      std::to_string(quantile(samples.step_wall_ns, 0.5) / 1e3) +
      " us, set-up median " + std::to_string(median(setup_s)) + " vs " +
      std::to_string(median(setup_wall_s)) + " s");

  auto& m = res.metrics;
  const double instants_per_bit = ratio(static_cast<double>(c.instants),
                                        static_cast<double>(c.payload_bits));
  if (!opt.trace) {
    m["setup_s"] = median(setup_s);
    const double best_s =
        std::accumulate(samples.best_ns.begin(), samples.best_ns.end(), 0.0) /
        1e9;
    m["instants_per_s"] = ratio(static_cast<double>(c.instants), best_s);
    m["payload_bits_per_s"] = ratio(static_cast<double>(c.payload_bits), best_s);
    m["instants_per_bit"] = instants_per_bit;
    m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    m["req_p50_us"] = median(samples.best_ns) / 1e3;
    return res;
  }

  const auto traced_reps = static_cast<double>(traced.size());
  const double traced_instants = static_cast<double>(c.instants) * traced_reps;
  const double traced_activations =
      static_cast<double>(c.activations) * traced_reps;

  const std::map<std::string, double> self = log.self_ns_by_name();
  const auto self_us = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / 1e3;
  };
  const auto mean_us = [](const std::vector<double>& ns) {
    return std::accumulate(ns.begin(), ns.end(), 0.0) /
           static_cast<double>(ns.size()) / 1e3;
  };

  m["core.setup_ms"] = median(setup_s) * 1e3;
  m["core.step_p50_us"] = quantile(samples.step_ns, 0.50) / 1e3;
  m["core.step_p99_us"] = quantile(samples.step_ns, 0.99) / 1e3;
  m["core.collect_us_per_instant"] = self_us("core.collect") / traced_instants;
  double phases_us = m["core.collect_us_per_instant"];
  for (const auto& [span, metric] :
       {std::pair{"sim.observe", "sim.observe_us_per_instant"},
        std::pair{"sim.compute", "sim.compute_us_per_instant"},
        std::pair{"sim.sched", "sim.sched_us_per_instant"},
        std::pair{"sim.commit", "sim.commit_us_per_instant"},
        std::pair{"sim.emit", "sim.emit_us_per_instant"},
        std::pair{"sim.step", "sim.step_self_us_per_instant"}}) {
    m[metric] = self_us(span) / traced_instants;
    phases_us += m[metric];
  }
  m["sim.activations_per_instant"] =
      ratio(static_cast<double>(c.activations),
            static_cast<double>(c.instants));
  m["sim.allocs_per_instant"] = ratio(static_cast<double>(reps[0].allocs),
                                      static_cast<double>(c.instants));
  m["proto.compute_us_per_activation"] =
      self_us("sim.compute") / traced_activations;
  m["proto.bits_decoded_per_bit_sent"] =
      ratio(static_cast<double>(c.bits_decoded),
            static_cast<double>(c.bits_sent));
  m["proto.idle_activation_ratio"] =
      ratio(static_cast<double>(c.idle_activations),
            static_cast<double>(c.activations));
  const std::uint64_t frames = c.messages_overheard + c.messages_received;
  m["proto.overheard_ratio"] = ratio(static_cast<double>(c.messages_overheard),
                                     static_cast<double>(frames));
  m["proto.naming_us"] = naming_ns / 1e3;
  m["geom.sec_us"] = sec_ns / 1e3;
  m["geom.voronoi_us"] = voronoi_ns / 1e3;
  m["geom.cache_hit_ratio"] =
      ratio(static_cast<double>(c.cache_hits),
            static_cast<double>(c.cache_hits + c.cache_misses));
  const std::size_t frame_bits =
      encode::encode_frame(in.messages[0].payload).size();
  m["encode.frame_efficiency"] = ratio(static_cast<double>(8 * w.payload_len),
                                       static_cast<double>(frame_bits));
  const double untraced_us = mean_us(samples.step_ns);
  const double traced_us = mean_us(traced_samples.step_ns);
  m["obs.trace_overhead_pct"] = 100.0 * (traced_us - untraced_us) / untraced_us;
  // The phase spans must account for the traced step spans they sit in;
  // both are wall-clock (the profiler counts TSC cycles).
  const double traced_wall_us = mean_us(traced_samples.step_wall_ns);
  m["obs.step_accounted_pct"] = 100.0 * phases_us / traced_wall_us;

  res.notes.push_back(
      "bases: bits_decoded " + std::to_string(c.bits_decoded) +
      " / bits_sent " + std::to_string(c.bits_sent) + "; idle " +
      std::to_string(c.idle_activations) +
      " / activations " + std::to_string(c.activations) + "; overheard " +
      std::to_string(c.messages_overheard) + " / decoded frames " +
      std::to_string(frames) + "; geom cache hits " +
      std::to_string(c.cache_hits) + " / lookups " +
      std::to_string(c.cache_hits + c.cache_misses) + "; payload bits " +
      std::to_string(8 * w.payload_len) + " / frame bits " +
      std::to_string(frame_bits));
  res.notes.push_back(
      "phase self times sum to " + std::to_string(phases_us) +
      " us/instant; step mean " + std::to_string(untraced_us) +
      " us untraced, " + std::to_string(traced_us) + " us traced (CPU), " +
      std::to_string(traced_wall_us) + " us traced (wall)");

  // The written trace holds the probes and the first traced repetition;
  // the self times above use every traced repetition.
  const std::string path = opt.out_dir + "/" + w.name + ".seed" +
                           std::to_string(opt.seed) + ".trace.json";
  if (log.write_chrome_trace(path, written_spans)) {
    res.notes.push_back("trace: " + path + " (" + std::to_string(log.size()) +
                        " spans in memory, " + std::to_string(written_spans) +
                        " written)");
  } else {
    res.fail("could not write " + path);
  }
  return res;
}

}  // namespace perfbench
