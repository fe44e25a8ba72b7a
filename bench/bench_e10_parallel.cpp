// E10 — batch-runner scaling and the configuration-epoch geometry cache.
//
// Part 1 runs one fixed fuzz workload (same seeds, same oracles) through
// par::BatchRunner at increasing job counts, verifying the results are
// byte-identical at every width (the invariance contract) and reporting
// the measured wall-clock speedup. Speedups are machine facts, not
// simulation facts: on a single-core host every column is ~1.0, which is
// the honest number — the correctness claim (identical digests) is the
// part that must hold everywhere.
//
// Part 2 counts geom::GeomCache traffic while a relative-naming swarm
// constructs: n robots each run the SEC-based labeling against the same
// t0 configuration, so all but the first computation hit the cache. The
// hit/miss counts are deterministic and baseline-gated; the wall times are
// not (they carry a "_wall"/"per_sec" suffix so the regression gate skips
// them).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/chat_network.hpp"
#include "fuzz/batch.hpp"
#include "geom/geom_cache.hpp"
#include "par/seed.hpp"

namespace {

using namespace stig;

/// FNV-1a over every case's (kind, schedule digest) — one number that
/// differs if any verdict or any schedule changed.
std::uint64_t batch_checksum(const std::vector<fuzz::BatchCase>& batch) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const fuzz::BatchCase& bc : batch) {
    mix(static_cast<std::uint64_t>(bc.result.kind));
    mix(bc.result.schedule_digest);
  }
  return h;
}

}  // namespace

int main() {
  using Clock = std::chrono::steady_clock;
  std::cout << "== E10: batch-runner scaling & geometry cache ==\n\n";

  bench::Report report("e10_parallel");

  // Part 1: one workload, widening pools.
  const std::size_t kCases = 120;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(kCases);
  for (std::size_t i = 0; i < kCases; ++i) {
    seeds.push_back(par::derive_seed(2026, i));
  }

  std::cout << "fuzz workload (" << kCases << " cases) vs job count:\n";
  bench::Table t({"jobs", "wall s", "speedup", "checksum ok"}, report,
                 "batch scaling");
  double base_wall = 0.0;
  std::uint64_t base_checksum = 0;
  bool all_identical = true;
  for (std::size_t jobs : {1u, 2u, 4u, 8u}) {
    const Clock::time_point start = Clock::now();
    const std::vector<fuzz::BatchCase> batch =
        fuzz::run_cases(seeds, std::nullopt, jobs);
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    const std::uint64_t checksum = batch_checksum(batch);
    if (jobs == 1) {
      base_wall = wall;
      base_checksum = checksum;
    }
    const bool identical = checksum == base_checksum;
    all_identical = all_identical && identical;
    t.row(jobs, wall, base_wall / wall, identical ? "yes" : "NO");
  }
  report.value("batch_identical_across_jobs",
               std::uint64_t{all_identical ? 1u : 0u});
  report.value("batch_checksum", base_checksum);
  report.value("batch_jobs1_wall_seconds", base_wall);
  std::cout << "\nexpected shape: \"checksum ok\" on every row — the batch "
               "is bit-identical at any width. Speedup approaches the "
               "physical core count and is ~1.0 on a single-core host.\n\n";

  // Part 2: cache traffic while a relative-naming swarm constructs.
  std::cout << "geometry cache during relative-naming construction "
               "(n = 24):\n";
  geom::GeomCache& cache = geom::GeomCache::local();
  const std::uint64_t hits0 = cache.hits();
  const std::uint64_t misses0 = cache.misses();
  const Clock::time_point cstart = Clock::now();
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  core::ChatNetwork net(bench::scatter(24, 1234, 60.0, 3.0), opt);
  const double cwall =
      std::chrono::duration<double>(Clock::now() - cstart).count();
  const std::uint64_t hits = cache.hits() - hits0;
  const std::uint64_t misses = cache.misses() - misses0;
  bench::Table t2({"cache hits", "cache misses", "hit rate %"}, report,
                  "geometry cache");
  t2.row(hits, misses,
         100.0 * static_cast<double>(hits) /
             static_cast<double>(hits + misses));
  report.value("geom_cache_hits", hits);
  report.value("geom_cache_misses", misses);
  report.value("construction_wall_seconds", cwall);
  std::cout << "\nexpected shape: one miss and one hit per robot — each "
               "robot's t0 view, in its own frame, is a distinct "
               "configuration; its relative naming computes that view's SEC "
               "(the miss) and its granular radii reuse the same entry (the "
               "hit).\n";
  return all_identical ? 0 : 1;
}
