// Shared types of the perfbench binary: run options, the metric record a
// workload returns, and small statistics helpers.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< Output directory for sockets, reports, traces.
  std::string stigd;    ///< Path of the stigd binary (serve_mix).
};

/// What one workload run produced. `metrics` holds end-to-end metrics on an
/// untraced run and per-layer metrics on a traced one, keyed by the names
/// BENCHMARK.json declares.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< Correctness or determinism faults.
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;   ///< Bases, sample counts, checks.

  void fail(std::string why) { errors.push_back(std::move(why)); }
  [[nodiscard]] bool correct() const { return errors.empty() && failed == 0; }
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty input.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// CPU time of the calling thread, in nanoseconds. The chat workloads are
/// single-threaded and never block, so on an idle host this equals their
/// wall time; on a shared host it leaves out the time the thread waited for
/// a CPU and, with paravirtual steal accounting, the time the hypervisor
/// gave its vCPU to another guest. Timings taken with it follow the
/// program, not the neighbours.
[[nodiscard]] inline double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

/// Pins the calling thread, and every process it forks after, to the k-th
/// (cycling) of the CPUs the process could use when it first called this.
/// The shared host slows one CPU at a time, by up to a third for seconds
/// on end: repetitions spread over the CPUs do not all meet one slow
/// stretch, and the least time over them filters it out. False when the
/// thread could not be pinned.
inline bool pin_to_cpu(std::size_t k) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

[[nodiscard]] bool is_chat_workload(const std::string& name);
Result run_chat(const Options& opt);
Result run_serve(const Options& opt);

}  // namespace perfbench
