// stigreport — offline analysis and regression gating for stigmergy runs.
//
// Three subcommands:
//
//   stigreport spans <events.jsonl>
//       Replay a `stigsim --events` JSONL log through the span builder and
//       print per-message latency attribution: an end-to-end percentile
//       summary, a per-span table (bits, phases, deliveries), per-robot
//       utilization and the run's critical path. `--json FILE` re-emits
//       the full span document ("-" = stdout, and the table goes to
//       stderr); `--trace FILE` writes the nested Chrome-trace view.
//
//   stigreport diff --baseline PATH <BENCH_*.json ...>
//       Compare bench artifacts against committed baselines. PATH is a
//       baseline file or a directory searched by filename. Numeric values
//       must stay within a relative threshold (default 0.05; override
//       globally with --threshold R or per bench with
//       --bench-threshold NAME=R); string values must match exactly.
//       Informational keys per the obs/metric_keys.hpp convention — any
//       key containing "wall", "cycles", "_per_sec", "_pct" or "_ns" —
//       are skipped. Prints one verdict line per key.
//
//   stigreport perf --baseline PATH <PERF_*.json ...>
//       The same gate for stigperf artifacts, with a zero default
//       threshold: the gated keys (allocation counts, bytes, event
//       counts) are deterministic functions of (code, seed), so any drift
//       is a real regression. When either side of a comparison was
//       produced without allocation tracking (sanitizer build,
//       "alloc_tracking": false), allocation-derived keys are skipped
//       instead of failing.
//
//   stigreport cov --baseline PATH <COV_*.json ...>
//       Coverage gate for stigfuzz --cov artifacts. Presence-based, not
//       value-based: every "edge."-prefixed key in the baseline must
//       still exist in the current artifact — a missing edge means the
//       corpus stopped exercising a protocol transition, parser outcome,
//       interleaving class, or fault path it used to reach. Hit counts
//       are informational (they scale with corpus size); new edges are
//       reported but never fail.
//
// Exit codes: 0 ok; 1 regression or mismatch (diff/perf/cov); 2 usage
// error; 3 I/O or parse error.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "flag_number.hpp"
#include "obs/jsonl_parse.hpp"
#include "obs/metric_keys.hpp"
#include "obs/span.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRegression = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

void usage(std::ostream& out) {
  out << "stigreport — span analysis and bench/perf regression gating\n\n"
      << "  stigreport spans <events.jsonl> [--json FILE|-] [--trace FILE]\n"
      << "  stigreport diff --baseline PATH [--threshold R]\n"
      << "                  [--bench-threshold NAME=R] <BENCH_*.json ...>\n"
      << "  stigreport perf --baseline PATH [--threshold R]\n"
      << "                  [--bench-threshold NAME=R] <PERF_*.json ...>\n"
      << "  stigreport cov --baseline PATH <COV_*.json ...>\n"
      << "  stigreport --help\n\n"
      << "spans: rebuild message spans from a stigsim --events log and\n"
      << "print latency attribution (percentiles, phases, critical path).\n\n"
      << "diff: gate BENCH_*.json artifacts against committed baselines.\n"
      << "Numeric values compared with a relative threshold (default\n"
      << "0.05); informational keys — containing \"wall\", \"cycles\",\n"
      << "\"_per_sec\", \"_pct\" or \"_ns\" — are machine-speed dependent\n"
      << "and skipped; strings must match exactly.\n\n"
      << "perf: the same gate for stigperf artifacts with a zero default\n"
      << "threshold — the gated keys are deterministic, so any drift is a\n"
      << "regression. Allocation-derived keys are skipped when either\n"
      << "side reports \"alloc_tracking\": false (sanitizer build).\n\n"
      << "cov: presence gate for stigfuzz --cov artifacts. Every \"edge.\"\n"
      << "key in the baseline must still exist; a lost edge fails. Hit\n"
      << "counts are informational; new edges are reported, not failed.\n\n"
      << "exit codes: 0 ok; 1 regression; 2 usage; 3 I/O error\n";
}

// ---------------------------------------------------------------- spans --

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int run_spans(const std::vector<std::string>& args) {
  std::string log_path;
  std::string json_out;
  std::string trace_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto need = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        std::cerr << "stigreport: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return args[++i];
    };
    if (a == "--json") {
      const auto v = need("--json");
      if (!v) return kExitUsage;
      json_out = *v;
    } else if (a == "--trace") {
      const auto v = need("--trace");
      if (!v) return kExitUsage;
      trace_out = *v;
    } else if (!a.empty() && a[0] == '-' && a != "-") {
      std::cerr << "stigreport: unknown spans flag " << a << "\n";
      return kExitUsage;
    } else if (log_path.empty()) {
      log_path = a;
    } else {
      std::cerr << "stigreport: spans takes one log file\n";
      return kExitUsage;
    }
  }
  if (log_path.empty()) {
    std::cerr << "stigreport: spans needs an events JSONL file\n";
    return kExitUsage;
  }

  stig::obs::EventLog log;
  {
    std::ifstream in(log_path);
    if (!in) {
      std::cerr << "stigreport: cannot open " << log_path << "\n";
      return kExitIo;
    }
    const std::size_t failed = log.read(in);
    if (failed > 0) {
      // Flight-recorder headers and truncated tails parse as failures;
      // report them but keep going — spans only need the event lines.
      std::cerr << "stigreport: " << failed << " unparsed line(s) in "
                << log_path << "\n";
    }
  }
  if (log.events().empty()) {
    std::cerr << "stigreport: no events in " << log_path << "\n";
    return kExitIo;
  }

  stig::obs::SpanBuilder builder;
  for (const stig::obs::Event& e : log.events()) builder.on_event(e);
  builder.finalize();

  const auto& spans = builder.spans();
  std::vector<double> e2e;
  e2e.reserve(spans.size());
  for (const auto& s : spans) e2e.push_back(static_cast<double>(s.end_to_end()));
  std::sort(e2e.begin(), e2e.end());

  // "--json -" keeps stdout for the span document, so it pipes into jq.
  std::ostream& out = json_out == "-" ? std::cerr : std::cout;
  out << "run: " << builder.instants() << " instants, " << spans.size()
      << " message span(s)";
  if (builder.corrupt_frames() > 0) {
    out << ", " << builder.corrupt_frames() << " corrupt frame(s)";
  }
  out << "\n\n";
  out << "end-to-end latency (instants): p50 " << percentile(e2e, 0.50)
      << "  p90 " << percentile(e2e, 0.90) << "  p99 "
      << percentile(e2e, 0.99) << "  max "
      << (e2e.empty() ? 0.0 : e2e.back()) << "\n\n";

  out << std::left << std::setw(5) << "id" << std::setw(8) << "sender"
      << std::setw(6) << "to" << std::setw(6) << "bits" << std::setw(8)
      << "start" << std::setw(8) << "end" << std::setw(8) << "e2e"
      << std::setw(7) << "deliv" << "phases\n";
  for (const auto& s : spans) {
    // Aggregate phase instants by name, in first-seen order.
    std::vector<std::pair<std::string, std::uint64_t>> agg;
    for (const auto& seg : s.phases) {
      auto it = std::find_if(agg.begin(), agg.end(), [&](const auto& p) {
        return p.first == seg.phase;
      });
      if (it == agg.end()) {
        agg.emplace_back(seg.phase, seg.instants());
      } else {
        it->second += seg.instants();
      }
    }
    std::ostringstream phases;
    for (std::size_t i = 0; i < agg.size(); ++i) {
      phases << (i == 0 ? "" : " ") << agg[i].first << "=" << agg[i].second;
    }
    out << std::left << std::setw(5) << s.id << std::setw(8) << s.sender
        << std::setw(6)
        << (s.broadcast ? std::string("*") : std::to_string(s.addressee))
        << std::setw(6) << s.bit_times.size() << std::setw(8) << s.start()
        << std::setw(8) << s.end() << std::setw(8) << s.end_to_end()
        << std::setw(7) << s.deliveries.size() << phases.str() << "\n";
  }

  out << "\nrobots:\n";
  for (const auto& u : builder.utilization()) {
    out << "  robot " << u.robot << ": " << u.bits_sent << " bit(s) sent, "
        << u.busy_instants << " busy / " << u.silent_instants
        << " silent instants (utilization " << std::fixed
        << std::setprecision(3) << u.utilization << ")\n";
    out.unsetf(std::ios::fixed);
  }

  const auto& cp = builder.critical_path();
  if (cp.sender >= 0) {
    out << "\ncritical path: sender " << cp.sender << ", "
        << cp.span_ids.size() << " span(s), " << cp.total_instants
        << " instants (" << cp.transmit_instants << " transmitting, "
        << cp.wait_instants << " waiting)\n";
  }

  if (!json_out.empty()) {
    if (json_out == "-") {
      builder.write_json(std::cout);
    } else {
      std::ofstream jf(json_out);
      if (!jf) {
        std::cerr << "stigreport: cannot write " << json_out << "\n";
        return kExitIo;
      }
      builder.write_json(jf);
    }
  }
  if (!trace_out.empty()) {
    std::ofstream tf(trace_out);
    if (!tf) {
      std::cerr << "stigreport: cannot write " << trace_out << "\n";
      return kExitIo;
    }
    builder.write_chrome_trace(tf);
  }
  return kExitOk;
}

// ----------------------------------------------------------------- diff --

/// One BENCH_*.json artifact reduced to its name and flat values map.
/// Values stay as raw JSON scalars ("12", "0.5", "\"true\"").
struct BenchValues {
  std::string bench;
  std::vector<std::pair<std::string, std::string>> values;
};

/// Extracts the quoted string starting at `pos` (which must point at the
/// opening quote). The schema never escapes quotes inside strings.
std::optional<std::string> quoted_at(std::string_view text,
                                     std::size_t pos) {
  if (pos >= text.size() || text[pos] != '"') return std::nullopt;
  const std::size_t close = text.find('"', pos + 1);
  if (close == std::string_view::npos) return std::nullopt;
  return std::string(text.substr(pos + 1, close - pos - 1));
}

std::size_t skip_ws(std::string_view text, std::size_t pos) {
  while (pos < text.size() &&
         (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\t' ||
          text[pos] == '\r')) {
    ++pos;
  }
  return pos;
}

/// Parses a BENCH_*.json artifact: the "bench" name and the flat scalar
/// "values" object. Tables are ignored — headline values are the gate.
std::optional<BenchValues> parse_bench(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  BenchValues out;
  const std::size_t bench_key = text.find("\"bench\":");
  if (bench_key == std::string::npos) return std::nullopt;
  const auto name = quoted_at(text, skip_ws(text, bench_key + 8));
  if (!name) return std::nullopt;
  out.bench = *name;

  const std::size_t values_key = text.find("\"values\":");
  if (values_key == std::string::npos) return std::nullopt;
  std::size_t pos = skip_ws(text, values_key + 9);
  if (pos >= text.size() || text[pos] != '{') return std::nullopt;
  pos = skip_ws(text, pos + 1);
  while (pos < text.size() && text[pos] != '}') {
    const auto key = quoted_at(text, pos);
    if (!key) return std::nullopt;
    pos = text.find('"', pos + 1) + 1;  // Past the key's closing quote.
    pos = skip_ws(text, pos);
    if (pos >= text.size() || text[pos] != ':') return std::nullopt;
    pos = skip_ws(text, pos + 1);
    std::string value;
    if (text[pos] == '"') {
      const auto v = quoted_at(text, pos);
      if (!v) return std::nullopt;
      value = "\"" + *v + "\"";
      pos = text.find('"', pos + 1) + 1;
    } else {
      // A bare scalar: runs to the next comma or closing brace.
      const std::size_t end = text.find_first_of(",}", pos);
      if (end == std::string::npos) return std::nullopt;
      value = text.substr(pos, end - pos);
      while (!value.empty() &&
             (value.back() == ' ' || value.back() == '\n')) {
        value.pop_back();
      }
      pos = end;
    }
    out.values.emplace_back(*key, value);
    pos = skip_ws(text, pos);
    if (pos < text.size() && text[pos] == ',') pos = skip_ws(text, pos + 1);
  }
  return out;
}

/// Machine-speed dependent keys never gate: they vary run to run on the
/// same commit. The marker convention lives in obs/metric_keys.hpp so
/// producers (stigperf, bench::Report users) and this gate agree.
bool is_speed_key(const std::string& key) {
  return stig::obs::is_informational_key(key);
}

/// True for keys derived from operator-new interposition counters, which
/// read zero in builds where interposition is compiled out (sanitizers).
bool is_alloc_key(const std::string& key) {
  for (const char* marker : {"alloc", "bytes", "frees"}) {
    if (key.find(marker) != std::string::npos) return true;
  }
  return false;
}

/// True when the artifact recorded that allocation tracking was off.
bool alloc_tracking_off(const BenchValues& v) {
  for (const auto& [key, raw] : v.values) {
    if (key == "alloc_tracking") return raw == "false";
  }
  return false;
}

/// Shared gate for `diff` (bench artifacts, relative threshold) and
/// `perf` (stigperf artifacts, exact by default + alloc-key skip).
int run_gate(const std::vector<std::string>& args, bool perf_mode) {
  std::string baseline_path;
  double threshold = perf_mode ? 0.0 : 0.05;
  const char* cmd = perf_mode ? "perf" : "diff";
  std::map<std::string, double> bench_thresholds;
  std::vector<std::string> artifacts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto need = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        std::cerr << "stigreport: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return args[++i];
    };
    if (a == "--baseline") {
      const auto v = need("--baseline");
      if (!v) return kExitUsage;
      baseline_path = *v;
    } else if (a == "--threshold") {
      const auto v = need("--threshold");
      if (!v) return kExitUsage;
      const auto t = stig::cli::read_number<double>(*v);
      if (!t || *t < 0.0) {
        std::cerr << "stigreport: bad --threshold " << *v << "\n";
        return kExitUsage;
      }
      threshold = *t;
    } else if (a == "--bench-threshold") {
      const auto v = need("--bench-threshold");
      if (!v) return kExitUsage;
      const std::size_t eq = v->find('=');
      const auto t = eq == std::string::npos
                         ? std::nullopt
                         : stig::cli::read_number<double>(v->substr(eq + 1));
      if (!t || *t < 0.0) {
        std::cerr << "stigreport: --bench-threshold wants NAME=R, got "
                  << *v << "\n";
        return kExitUsage;
      }
      bench_thresholds[v->substr(0, eq)] = *t;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "stigreport: unknown " << cmd << " flag " << a << "\n";
      return kExitUsage;
    } else {
      artifacts.push_back(a);
    }
  }
  if (baseline_path.empty()) {
    std::cerr << "stigreport: " << cmd << " needs --baseline\n";
    return kExitUsage;
  }
  if (artifacts.empty()) {
    std::cerr << "stigreport: " << cmd << " needs "
              << (perf_mode ? "PERF" : "BENCH") << "_*.json artifacts\n";
    return kExitUsage;
  }

  namespace fs = std::filesystem;
  const bool baseline_is_dir = fs::is_directory(baseline_path);

  int regressions = 0;
  int compared = 0;
  for (const std::string& artifact : artifacts) {
    const auto current = parse_bench(artifact);
    if (!current) {
      std::cerr << "stigreport: cannot parse " << artifact << "\n";
      return kExitIo;
    }
    const std::string base_file =
        baseline_is_dir
            ? (fs::path(baseline_path) / fs::path(artifact).filename())
                  .string()
            : baseline_path;
    const auto baseline = parse_bench(base_file);
    if (!baseline) {
      std::cerr << "stigreport: cannot parse baseline " << base_file
                << " for " << artifact << "\n";
      return kExitIo;
    }

    const auto th_it = bench_thresholds.find(current->bench);
    const double th =
        th_it != bench_thresholds.end() ? th_it->second : threshold;
    std::cout << current->bench << " vs " << base_file
              << " (threshold " << th << "):\n";

    // Allocation-derived keys are only comparable when both sides counted
    // allocations; a sanitizer build (alloc_tracking:false) on either side
    // skips them — in `perf` and `diff` mode alike, so BENCH artifacts
    // that record memory-per-session stay gateable under ASan/TSan lanes.
    const bool skip_alloc_keys =
        alloc_tracking_off(*current) || alloc_tracking_off(*baseline);

    std::map<std::string, std::string> base_map(
        baseline->values.begin(), baseline->values.end());
    for (const auto& [key, raw] : current->values) {
      if (is_speed_key(key)) {
        std::cout << "  skip  " << key << " (machine-speed)\n";
        continue;
      }
      if (skip_alloc_keys && (is_alloc_key(key) || key == "alloc_tracking")) {
        std::cout << "  skip  " << key << " (alloc tracking off)\n";
        base_map.erase(key);
        continue;
      }
      const auto base_it = base_map.find(key);
      if (base_it == base_map.end()) {
        std::cout << "  new   " << key << " = " << raw
                  << " (not in baseline)\n";
        continue;
      }
      ++compared;
      const auto cur_n = stig::cli::read_number<double>(raw);
      const auto base_n = stig::cli::read_number<double>(base_it->second);
      if (cur_n && base_n) {
        const double denom = std::max(std::abs(*base_n), 1e-12);
        const double rel = std::abs(*cur_n - *base_n) / denom;
        if (rel > th) {
          std::cout << "  FAIL  " << key << ": " << raw << " vs baseline "
                    << base_it->second << " (rel delta " << rel << ")\n";
          ++regressions;
        } else {
          std::cout << "  ok    " << key << " = " << raw << "\n";
        }
      } else if (raw != base_it->second) {
        std::cout << "  FAIL  " << key << ": " << raw << " vs baseline "
                  << base_it->second << "\n";
        ++regressions;
      } else {
        std::cout << "  ok    " << key << " = " << raw << "\n";
      }
      base_map.erase(base_it);
    }
    for (const auto& [key, raw] : base_map) {
      if (is_speed_key(key)) continue;
      if (skip_alloc_keys && (is_alloc_key(key) || key == "alloc_tracking")) {
        continue;
      }
      std::cout << "  FAIL  " << key << " missing (baseline has " << raw
                << ")\n";
      ++regressions;
    }
  }
  std::cout << (regressions == 0 ? "PASS" : "FAIL") << ": " << compared
            << " value(s) compared, " << regressions << " regression(s)\n";
  return regressions == 0 ? kExitOk : kExitRegression;
}

// ------------------------------------------------------------------ cov --

/// The coverage gate: baseline edges must survive; counts never gate.
/// A corpus's edge *set* is a deterministic function of (code, seeds), so
/// presence is exactly as strict as the perf gate's zero threshold —
/// while hit counts would make every corpus-size change a false alarm.
int run_cov(const std::vector<std::string>& args) {
  std::string baseline_path;
  std::vector<std::string> artifacts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--baseline") {
      if (i + 1 >= args.size()) {
        std::cerr << "stigreport: --baseline needs a value\n";
        return kExitUsage;
      }
      baseline_path = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "stigreport: unknown cov flag " << a << "\n";
      return kExitUsage;
    } else {
      artifacts.push_back(a);
    }
  }
  if (baseline_path.empty()) {
    std::cerr << "stigreport: cov needs --baseline\n";
    return kExitUsage;
  }
  if (artifacts.empty()) {
    std::cerr << "stigreport: cov needs COV_*.json artifacts\n";
    return kExitUsage;
  }

  namespace fs = std::filesystem;
  const bool baseline_is_dir = fs::is_directory(baseline_path);

  const auto is_edge_key = [](const std::string& key) {
    return key.rfind("edge.", 0) == 0;
  };

  int lost = 0;
  int checked = 0;
  int gained = 0;
  for (const std::string& artifact : artifacts) {
    const auto current = parse_bench(artifact);
    if (!current) {
      std::cerr << "stigreport: cannot parse " << artifact << "\n";
      return kExitIo;
    }
    const std::string base_file =
        baseline_is_dir
            ? (fs::path(baseline_path) / fs::path(artifact).filename())
                  .string()
            : baseline_path;
    const auto baseline = parse_bench(base_file);
    if (!baseline) {
      std::cerr << "stigreport: cannot parse baseline " << base_file
                << " for " << artifact << "\n";
      return kExitIo;
    }
    std::cout << current->bench << " vs " << base_file << ":\n";

    std::map<std::string, std::string> cur_map(current->values.begin(),
                                               current->values.end());
    for (const auto& [key, raw] : baseline->values) {
      if (!is_edge_key(key)) continue;
      ++checked;
      const auto cur_it = cur_map.find(key);
      if (cur_it == cur_map.end()) {
        std::cout << "  FAIL  " << key << " lost (baseline hit " << raw
                  << " time(s))\n";
        ++lost;
      } else {
        std::cout << "  ok    " << key << " = " << cur_it->second << "\n";
        cur_map.erase(cur_it);
      }
    }
    for (const auto& [key, raw] : cur_map) {
      if (!is_edge_key(key)) continue;
      std::cout << "  new   " << key << " = " << raw
                << " (not in baseline — consider refreshing it)\n";
      ++gained;
    }
  }
  std::cout << (lost == 0 ? "PASS" : "FAIL") << ": " << checked
            << " edge(s) checked, " << lost << " lost, " << gained
            << " new\n";
  return lost == 0 ? kExitOk : kExitRegression;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage(std::cerr);
    return kExitUsage;
  }
  if (args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
    usage(std::cout);
    return kExitOk;
  }
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (args[0] == "spans") return run_spans(rest);
  if (args[0] == "diff") return run_gate(rest, /*perf_mode=*/false);
  if (args[0] == "perf") return run_gate(rest, /*perf_mode=*/true);
  if (args[0] == "cov") return run_cov(rest);
  std::cerr << "stigreport: unknown subcommand " << args[0] << "\n";
  usage(std::cerr);
  return kExitUsage;
}
