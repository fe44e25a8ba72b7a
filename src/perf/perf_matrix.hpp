// The stigperf scenario matrix — reproducible hot-path cost measurement.
//
// A `Scenario` pins one protocol × robot-count workload (who sends what,
// under which seed); `run_scenario` executes it twice on the calling
// thread — once unmeasured to warm every lazy static and thread-local
// cache (geom::GeomCache in particular), once measured — and returns the
// deterministic cost counters of the measured run's step loop:
// allocations, bytes, relative peak live bytes, emitted events, plus the
// per-phase profiler rollup (obs/prof.hpp).
//
// Determinism contract: every number in `ScenarioResult` except the
// timing fields (`run_ns`, cycle counts) is a pure function of (code,
// scenario). The warmup run is what makes that hold at any
// par::BatchRunner job count — a fresh worker thread and a reused one see
// the same measured-run allocation trace because both enter it with their
// thread-local caches already at capacity. `render_perf_json` with
// `include_timing = false` therefore emits byte-identical artifacts at
// jobs 1 and jobs 8 (tested in tests/test_obs_prof.cpp); the stigperf
// regression gate relies on exactly this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "obs/prof.hpp"

namespace stig::perf {

/// One cell of the measurement matrix.
struct Scenario {
  std::string name;  ///< Artifact name: PERF_<name>.json.
  core::ProtocolKind protocol = core::ProtocolKind::sliced;
  core::Synchrony synchrony = core::Synchrony::synchronous;
  std::size_t robots = 2;
  std::size_t payload_len = 4;  ///< Bytes per queued message.
  std::size_t messages = 1;     ///< 1: robot 0 -> n-1; 2: also n-1 -> 0.
  sim::Time max_instants = 5'000'000;
  std::uint64_t seed = 1;
};

/// Measured costs of one scenario's step loop (sends queued beforehand;
/// construction and warmup excluded).
struct ScenarioResult {
  Scenario scenario;
  std::string protocol;  ///< Resolved protocol name.
  std::uint64_t instants = 0;
  bool quiescent = false;
  /// False when operator-new interposition is compiled out (sanitizer
  /// builds) — every alloc-derived field below is then zero and the gate
  /// must skip them.
  bool alloc_tracking = false;
  std::uint64_t allocs = 0;  ///< operator-new calls during the run loop.
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;        ///< Cumulative bytes requested.
  std::int64_t peak_bytes = 0;    ///< Peak live bytes above the pre-run level.
  std::uint64_t events = 0;       ///< Telemetry events emitted.
  double run_ns = 0.0;            ///< Wall time of the measured loop.
  std::vector<obs::prof::PhaseStats> phases;
};

/// The default matrix: one cell per protocol family plus the grid-backed
/// sliced_n64, small enough for a CI smoke job (sync2_n2, sliced_n8,
/// sliced_n32, ksegment_n9, async2_n2, asyncn_n8, sliced_n64).
[[nodiscard]] std::vector<Scenario> fast_matrix();

/// The fast matrix plus the nightly-only large cells (asyncn_n16,
/// sliced_n1024).
[[nodiscard]] std::vector<Scenario> full_matrix();

/// Runs `s` (warmup + measured) on the calling thread.
[[nodiscard]] ScenarioResult run_scenario(const Scenario& s);

/// Renders `r` in the BENCH_*.json artifact schema ("bench" + flat
/// "values"), so stigreport's parser and gate apply unchanged. Gated keys
/// (allocs/bytes/events per instant, per-phase allocation counters) are
/// always present; cycle and wall keys only when `include_timing` — and
/// they carry the obs/metric_keys.hpp informational markers either way.
[[nodiscard]] std::string render_perf_json(const ScenarioResult& r,
                                           bool include_timing);

}  // namespace stig::perf
