// E13 — large-n throughput: the O(n^2)-per-instant wall, measured.
//
// Table A steps an identified swarm of lightweight oscillating robots
// under a k-subset scheduler (k = 8) for 2000 instants at n in
// {32, 128, 512, 1024, 4096} and reports per-instant wall time. On the
// quadratic-era engine (per-robot configuration copies, all-pairs
// collision/min-separation scans) per-instant cost grew ~n^2 even with a
// constant number of activations; with the epoch ring and grid-backed
// scans it grows ~k*n. The binary SELF-GATES: it exits non-zero when the
// n=4096 / n=32 per-instant ratio exceeds a quarter of the quadratic
// prediction (4096/32)^2 — so CI fails if the wall ever comes back.
//
// Table B measures end-to-end chat throughput (sliced synchronous
// protocol, by_ids naming, one 1-byte broadcast) at n in
// {32, 128, 512, 1024}: instants to quiescence, bits delivered, and
// machine-dependent bits/sec and microseconds per instant (ungated
// `chat_per_instant_ns_n<k>`). n = 4096 is omitted: a full chat swarm
// holds n granulars per robot core (n^2 total), which at 4096 costs
// multiple GiB before the first instant runs — see EXPERIMENTS.md E13.
//
// Deterministic keys (activations, instants, bits) are baseline-gated by
// `stigreport diff`; per-instant and per-second keys carry the skip
// suffixes of the obs/metric_keys.hpp convention.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/chat_network.hpp"
#include "sim/engine.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace {

using namespace stig;
using Clock = std::chrono::steady_clock;

/// Oscillates +-0.01 around its start: every activation commits a real
/// move (exercising the collision scan and trace min-separation paths)
/// while staying far inside its 3-unit grid slot.
class Oscillator final : public sim::Robot {
 public:
  void initialize(const sim::Snapshot&) override {}
  geom::Vec2 on_activate(const sim::Snapshot& snap) override {
    flip_ = !flip_;
    return snap.self_robot().position + geom::Vec2{flip_ ? 0.01 : -0.01, 0.0};
  }

 private:
  bool flip_ = false;
};

}  // namespace

int main() {
  std::cout << "== E13: large-n throughput (epoch ring + grid scans) ==\n\n";
  bench::Report report("e13_scale");

  // ---- Table A: engine scaling, k-subset activation (k = 8).
  const sim::Time kInstants = 2000;
  const std::size_t kSubset = 8;
  std::cout << "engine per-instant cost, " << kInstants
            << " instants, k-subset scheduler (k = " << kSubset << "):\n";
  bench::Table ta({"n", "activations", "instants/s", "per-instant us"},
                  report, "engine scaling");
  const std::vector<std::size_t> kSizes{32, 128, 512, 1024, 4096};
  std::vector<double> per_instant_ns;
  for (std::size_t idx = 0; idx < kSizes.size(); ++idx) {
    const std::size_t n = kSizes[idx];
    std::vector<sim::RobotSpec> specs;
    std::vector<std::unique_ptr<sim::Robot>> programs;
    specs.reserve(n);
    programs.reserve(n);
    // A jittered grid: a rejection scatter cannot fit 4096 points with a
    // 3-unit gap in a fixed box.
    sim::Rng place(bench::case_seed(1300, idx));
    const std::vector<geom::Vec2> start = sim::jittered_grid(place, n, 3.0);
    for (std::size_t i = 0; i < n; ++i) {
      sim::RobotSpec s;
      s.position = start[i];
      s.sigma = 0.25;
      s.id = static_cast<sim::VisibleId>(i + 1);
      specs.push_back(s);
      programs.push_back(std::make_unique<Oscillator>());
    }
    sim::Engine engine(specs, std::move(programs),
                       std::make_unique<sim::KSubsetScheduler>(
                           kSubset, bench::case_seed(1301, idx)));
    const Clock::time_point t0 = Clock::now();
    engine.run(kInstants);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();

    std::uint64_t activations = 0;
    for (std::size_t i = 0; i < n; ++i) {
      activations += engine.trace().stats(i).activations;
    }
    const double ns = wall / static_cast<double>(kInstants) * 1e9;
    per_instant_ns.push_back(ns);
    ta.row(n, activations, static_cast<double>(kInstants) / wall,
           ns / 1000.0);
    const std::string suffix = "_n" + std::to_string(n);
    report.value("activations" + suffix, activations);
    report.value("per_instant_ns" + suffix, ns);
    report.value("instants_per_sec" + suffix,
                 static_cast<double>(kInstants) / wall);
  }

  // Self-gate: the large-n/small-n per-instant ratio must stay far below
  // the quadratic prediction. ~k*n scaling predicts ratio ~128 here; the
  // gate allows up to a quarter of the quadratic 16384, so only a
  // genuine return of an O(n^2)-per-instant scan can trip it.
  const double ratio = per_instant_ns.back() / per_instant_ns.front();
  const double quadratic = std::pow(
      static_cast<double>(kSizes.back()) / static_cast<double>(kSizes.front()),
      2.0);
  const bool scaling_ok = ratio <= 0.25 * quadratic;
  report.value("scaling_ratio_vs_quadratic_pct", 100.0 * ratio / quadratic);
  std::cout << "\nn=4096/n=32 per-instant ratio " << ratio << " vs quadratic "
            << quadratic << " (" << 100.0 * ratio / quadratic
            << "% of quadratic) -> " << (scaling_ok ? "ok" : "REGRESSION")
            << "\n\n";

  // ---- Table B: end-to-end chat throughput (sliced sync, by_ids).
  std::cout << "chat throughput: 1-byte broadcast, sliced synchronous "
               "protocol, by_ids naming:\n";
  bench::Table tb({"n", "instants", "bits", "bits/instant", "bits/s",
                   "us/instant"},
                  report, "chat throughput");
  const std::vector<std::uint8_t> one_byte{0xA5};
  for (std::size_t idx = 0; idx < 4; ++idx) {
    const std::size_t n = std::vector<std::size_t>{32, 128, 512, 1024}[idx];
    core::ChatNetworkOptions opt;
    opt.synchrony = core::Synchrony::synchronous;
    opt.protocol = core::ProtocolKind::sliced;
    opt.caps.visible_ids = true;
    opt.caps.sense_of_direction = true;
    opt.seed = bench::case_seed(1302, idx);
    sim::Rng place(bench::case_seed(1303, idx));
    core::ChatNetwork net(sim::jittered_grid(place, n, 3.0), opt);
    const Clock::time_point t0 = Clock::now();
    net.broadcast(0, one_byte);
    const bool done = net.run_until_quiescent(1'000'000);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const std::uint64_t instants = net.engine().trace().instants();
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const core::Delivery& d : net.received(i)) {
        bits += 8 * d.payload.size();
      }
    }
    // End-to-end cost of one chat instant on the real protocol, beside
    // Table A's Oscillator engine cost.
    const double per_instant_ns =
        1e9 * wall / static_cast<double>(instants);
    tb.row(n, instants, bits,
           static_cast<double>(bits) / static_cast<double>(instants),
           static_cast<double>(bits) / wall, per_instant_ns / 1000.0);
    const std::string suffix = "_n" + std::to_string(n);
    report.value("chat_instants" + suffix, instants);
    report.value("chat_bits_delivered" + suffix, bits);
    report.value("chat_bits_per_sec" + suffix,
                 static_cast<double>(bits) / wall);
    report.value("chat_per_instant_ns" + suffix, per_instant_ns);
    if (!done) {
      std::cout << "broadcast did not quiesce at n = " << n << "\n";
      return 1;
    }
  }
  std::cout << "\nexpected shape: bits scale with n (every robot receives "
               "the byte), instants grow slowly, and Table A stays ~linear "
               "in n per instant — the wall is gone end to end.\n";
  return scaling_ok ? 0 : 1;
}
