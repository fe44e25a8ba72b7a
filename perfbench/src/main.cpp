// perfbench — the repository benchmark's measuring binary.
//
//   perfbench --workload NAME --seed N --seconds T --trace 0|1
//             --out-dir DIR --stigd PATH
//
// Runs one workload for T seconds, checks every output, prints each metric
// by name with its unit on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics and writes a Chrome trace into DIR. Exit code 0 only
// when every output was correct; 2 on a usage error.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <span>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Names and units as BENCHMARK.json declares them.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"instants_per_s", "1/s"},
    {"payload_bits_per_s", "bit/s"},
    {"instants_per_bit", "instant/bit"},
    {"peak_rss_mb", "MB"},
    {"req_p50_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.setup_ms", "ms"},
    {"core.step_p50_us", "us"},
    {"core.step_p99_us", "us"},
    {"core.collect_us_per_instant", "us"},
    {"sim.observe_us_per_instant", "us"},
    {"sim.compute_us_per_instant", "us"},
    {"sim.sched_us_per_instant", "us"},
    {"sim.commit_us_per_instant", "us"},
    {"sim.emit_us_per_instant", "us"},
    {"sim.step_self_us_per_instant", "us"},
    {"sim.activations_per_instant", "count"},
    {"sim.allocs_per_instant", "count"},
    {"proto.compute_us_per_activation", "us"},
    {"proto.bits_decoded_per_bit_sent", "ratio"},
    {"proto.idle_activation_ratio", "ratio"},
    {"proto.overheard_ratio", "ratio"},
    {"proto.naming_us", "us"},
    {"geom.sec_us", "us"},
    {"geom.voronoi_us", "us"},
    {"geom.cache_hit_ratio", "ratio"},
    {"encode.frame_efficiency", "ratio"},
    {"serve.open_p50_us", "us"},
    {"serve.send_p50_us", "us"},
    {"serve.step_p50_us", "us"},
    {"serve.poll_p50_us", "us"},
    {"serve.report_p50_us", "us"},
    {"serve.close_p50_us", "us"},
    {"serve.server_open_mean_us", "us"},
    {"serve.server_send_mean_us", "us"},
    {"serve.server_step_mean_us", "us"},
    {"serve.server_poll_mean_us", "us"},
    {"serve.server_report_mean_us", "us"},
    {"serve.server_close_mean_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.codec_ns_per_req", "ns"},
    {"serve.busy_ratio", "ratio"},
    {"serve.queue_depth_mean", "count"},
    {"serve.backlog_max", "count"},
    {"serve.gen_late_p99_us", "us"},
    {"serve.req_p99_us", "us"},
    {"serve.capacity_rps", "1/s"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.step_accounted_pct", "%"},
};

void usage() {
  std::cerr << "usage: perfbench --workload sliced_n192|asyncn_n32|serve_mix"
               " --seed N --seconds T --trace 0|1 --out-dir DIR"
               " --stigd PATH\n";
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else if (flag == "--stigd") {
      o.stigd = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && o.seconds > 0 && !o.out_dir.empty() &&
         (perfbench::is_chat_workload(o.workload) ||
          (o.workload == "serve_mix" && !o.stigd.empty()));
}

/// Shortest decimal that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  Result res;
  try {
    res = perfbench::is_chat_workload(opt.workload) ? perfbench::run_chat(opt)
                                                    : perfbench::run_serve(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " threw: " << e.what()
              << "\n";
    return 1;
  }

  for (const auto& [name, v] : res.metrics) {
    if (!std::isfinite(v)) res.fail(name + " is not a finite number");
  }
  std::cerr << "perfbench " << opt.workload << " seed " << opt.seed
            << (opt.trace ? " (traced)" : "") << "\n";
  for (const std::string& n : res.notes) std::cerr << "  " << n << "\n";
  for (const std::string& e : res.errors) std::cerr << "  FAIL: " << e << "\n";

  std::string json = "{\"correct\": ";
  json += res.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted) +
          ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  const std::span<const MetricDef> defs =
      opt.trace ? std::span<const MetricDef>(kPerLayer)
                : std::span<const MetricDef>(kEndToEnd);
  // An incorrect or invalid run reports no numbers.
  bool first = true;
  for (const MetricDef& d : res.correct() ? defs : defs.first(0)) {
    const auto it = res.metrics.find(d.name);
    const bool exercised = it != res.metrics.end();
    const double v = exercised ? it->second : 0.0;
    std::cerr << "  " << d.name << " = " << number(v) << " " << d.unit
              << (exercised ? "" : "  (layer not exercised by this workload)")
              << "\n";
    json += std::string(first ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + number(v) + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  for (const auto& [name, v] : res.metrics) {
    bool declared = false;
    for (const MetricDef& d : defs) {
      declared = declared || name == d.name;
    }
    if (!declared) std::cerr << "  (undeclared metric " << name << ")\n";
  }
  json += "}}";
  std::cout << json << std::endl;
  return res.correct() ? 0 : 1;
}
