#include "perf/perf_matrix.hpp"

#include <chrono>
#include <sstream>

#include "obs/alloc_track.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "sim/placement.hpp"

namespace stig::perf {
namespace {

/// Pairwise-separated points, deterministic in `seed`. The fixed 80x80
/// rejection box saturates near 700 points at the 3-unit separation, so
/// cells above 256 robots use a jittered spacing-3 grid instead.
std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  if (n > 256) return sim::jittered_grid(rng, n, 3.0);
  return sim::scatter(rng, n, 40.0, 3.0);
}

std::vector<std::uint8_t> payload(std::size_t len, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

core::ChatNetworkOptions options_for(const Scenario& s) {
  core::ChatNetworkOptions o;
  o.synchrony = s.synchrony;
  o.protocol = s.protocol;
  o.seed = s.seed;
  return o;
}

void queue_messages(core::ChatNetwork& net, const Scenario& s) {
  const std::size_t n = net.robot_count();
  net.send(0, n - 1, payload(s.payload_len, s.seed ^ 0x9e3779b9));
  if (s.messages > 1) {
    net.send(n - 1, 0, payload(s.payload_len, s.seed ^ 0x7f4a7c15));
  }
}

Scenario cell(const char* name, core::ProtocolKind protocol,
              core::Synchrony synchrony, std::size_t robots,
              std::size_t payload_len, std::size_t messages,
              std::uint64_t seed) {
  Scenario s;
  s.name = name;
  s.protocol = protocol;
  s.synchrony = synchrony;
  s.robots = robots;
  s.payload_len = payload_len;
  s.messages = messages;
  s.seed = seed;
  return s;
}

void emit_value(std::ostringstream& out, bool& first, const std::string& key,
                const std::string& raw) {
  out << (first ? "\n" : ",\n") << "    " << obs::json_quote(key) << ": "
      << raw;
  first = false;
}

}  // namespace

std::vector<Scenario> fast_matrix() {
  using core::ProtocolKind;
  using core::Synchrony;
  return {
      cell("sync2_n2", ProtocolKind::sync2, Synchrony::synchronous, 2, 8, 2,
           11),
      cell("sliced_n8", ProtocolKind::sliced, Synchrony::synchronous, 8, 4,
           2, 12),
      cell("sliced_n32", ProtocolKind::sliced, Synchrony::synchronous, 32, 2,
           1, 13),
      cell("ksegment_n9", ProtocolKind::ksegment, Synchrony::synchronous, 9,
           4, 1, 14),
      cell("async2_n2", ProtocolKind::async2, Synchrony::asynchronous, 2, 8,
           2, 15),
      cell("asyncn_n8", ProtocolKind::asyncn, Synchrony::asynchronous, 8, 4,
           1, 16),
      // The smallest swarm whose slice association and granular radii go
      // through PointGrid (n >= 64), so the per-push gate covers both
      // sides of that switch.
      cell("sliced_n64", ProtocolKind::sliced, Synchrony::synchronous, 64, 2,
           1, 17),
  };
}

std::vector<Scenario> full_matrix() {
  using core::ProtocolKind;
  using core::Synchrony;
  std::vector<Scenario> m = fast_matrix();
  m.push_back(cell("asyncn_n16", ProtocolKind::asyncn,
                   Synchrony::asynchronous, 16, 2, 1, 18));
  // The post-epoch-ring large cell: one 2-byte message across a
  // 1024-robot sliced swarm. Exists to pin the hot-path allocation
  // profile at a size where the old per-robot configuration copies and
  // all-pairs scans dominated. Nightly-only for its time: about 3 s of
  // stepping per run, plus about 1 s to build each of its two swarms
  // (warm-up included). Memory no longer bars it: with every core's
  // labelings kept as a NamingRing, a swarm holds about 130 MB.
  m.push_back(cell("sliced_n1024", ProtocolKind::sliced,
                   Synchrony::synchronous, 1024, 2, 1, 19));
  return m;
}

ScenarioResult run_scenario(const Scenario& s) {
  // Warmup: the identical workload, unmeasured, on this thread. Afterward
  // every process-wide lazy static and every thread-local cache the
  // measured run touches is already sized, so the measured allocation
  // trace is the same on a fresh worker thread and a reused one.
  {
    core::ChatNetwork net(scatter(s.robots, s.seed), options_for(s));
    queue_messages(net, s);
    (void)net.run_until_quiescent(s.max_instants);
  }

  ScenarioResult r;
  r.scenario = s;
  obs::prof::Profiler prof;
  obs::CountingSink counter;
  core::ChatNetwork net(scatter(s.robots, s.seed), options_for(s));
  r.protocol = core::protocol_kind_name(net.protocol_kind());
  net.attach_profiler(&prof);
  net.attach_event_sink(&counter);
  queue_messages(net, s);

  obs::alloc::reset_peak();
  const obs::alloc::Counters before = obs::alloc::snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  r.quiescent = net.run_until_quiescent(s.max_instants);
  const auto t1 = std::chrono::steady_clock::now();
  const obs::alloc::Counters after = obs::alloc::snapshot();

  r.alloc_tracking = obs::alloc::active();
  r.instants = net.engine().now();
  r.allocs = after.allocs - before.allocs;
  r.frees = after.frees - before.frees;
  r.bytes = after.bytes - before.bytes;
  // Relative peak: high-water mark of the run above its starting live
  // level, so the thread's prior history cannot leak into the number.
  r.peak_bytes = after.peak_live_bytes - before.live_bytes;
  r.events = counter.total();
  r.run_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  r.phases = prof.stats();
  return r;
}

std::string render_perf_json(const ScenarioResult& r, bool include_timing) {
  std::ostringstream out;
  out << "{\n  \"bench\": " << obs::json_quote(r.scenario.name) << ",";
  if (include_timing) {
    out << "\n  \"wall_seconds\": " << obs::json_number(r.run_ns / 1e9)
        << ",";
  }
  out << "\n  \"values\": {";
  bool first = true;
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  const double inst =
      r.instants > 0 ? static_cast<double>(r.instants) : 1.0;
  emit_value(out, first, "protocol", obs::json_quote(r.protocol));
  emit_value(out, first, "robots", u64(r.scenario.robots));
  emit_value(out, first, "instants", u64(r.instants));
  emit_value(out, first, "quiescent", r.quiescent ? "true" : "false");
  emit_value(out, first, "alloc_tracking",
             r.alloc_tracking ? "true" : "false");
  emit_value(out, first, "events", u64(r.events));
  emit_value(out, first, "events_per_instant",
             obs::json_number(static_cast<double>(r.events) / inst));
  emit_value(out, first, "allocs", u64(r.allocs));
  emit_value(out, first, "allocs_per_instant",
             obs::json_number(static_cast<double>(r.allocs) / inst));
  emit_value(out, first, "frees", u64(r.frees));
  emit_value(out, first, "bytes", u64(r.bytes));
  emit_value(out, first, "bytes_per_instant",
             obs::json_number(static_cast<double>(r.bytes) / inst));
  emit_value(out, first, "peak_bytes", std::to_string(r.peak_bytes));
  for (const obs::prof::PhaseStats& p : r.phases) {
    const std::string base = std::string("prof.") + p.name + ".";
    emit_value(out, first, base + "calls", u64(p.calls));
    emit_value(out, first, base + "self_allocs", u64(p.self_allocs));
    emit_value(out, first, base + "total_allocs", u64(p.total_allocs));
    emit_value(out, first, base + "self_bytes", u64(p.self_bytes));
    emit_value(out, first, base + "total_bytes", u64(p.total_bytes));
    if (include_timing) {
      emit_value(out, first, base + "self_cycles", u64(p.self_cycles));
      emit_value(out, first, base + "total_cycles", u64(p.total_cycles));
    }
  }
  if (include_timing) {
    emit_value(out, first, "run_ns", obs::json_number(r.run_ns));
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

}  // namespace stig::perf
