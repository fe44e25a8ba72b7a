// Shared helpers for the figure-reproduction and evaluation binaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "geom/vec.hpp"
#include "obs/json.hpp"
#include "par/batch_runner.hpp"
#include "par/seed.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig::bench {

/// Per-case seed for sweep row `index` of a bench rooted at `root`. Every
/// repetition gets its own derived stream (no per-process seed reuse
/// across rows), and the derivation is index-keyed, so a row's seed never
/// depends on how many rows ran before it — which is what lets `batch_map`
/// fan rows out without changing any number.
[[nodiscard]] inline std::uint64_t case_seed(std::uint64_t root,
                                             std::uint64_t index) {
  return par::derive_seed(root, index);
}

/// Worker threads for `batch_map`: the STIG_BENCH_JOBS environment
/// variable (0 = all cores); unset or empty means 1 (sequential-equivalent
/// — the same pool, one worker).
[[nodiscard]] inline std::size_t batch_jobs() {
  const char* env = std::getenv("STIG_BENCH_JOBS");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
}

/// Runs `fn(0) .. fn(count-1)` across a BatchRunner pool with
/// `batch_jobs()` workers and returns the results in index order. Sweep
/// bodies must derive all randomness from `case_seed` (or other
/// index-keyed seeds) — then the emitted rows are byte-identical at any
/// STIG_BENCH_JOBS, and the JSON artifact stays comparable to baselines
/// regenerated at a different job count.
template <typename Fn>
[[nodiscard]] auto batch_map(std::size_t count, Fn&& fn) {
  par::BatchRunner runner(par::BatchOptions{.jobs = batch_jobs()});
  return runner.map(count, std::forward<Fn>(fn));
}

/// Scatters n pairwise-separated points in a box, deterministically.
inline std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed,
                                       double extent = 30.0,
                                       double min_gap = 3.0) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, extent, min_gap);
}

/// Random payload bytes, deterministic.
inline std::vector<std::uint8_t> payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

/// Machine-readable bench output: collects headline values and every table
/// row a bound `Table` prints, and writes `BENCH_<name>.json` on
/// destruction (or an explicit `write()`), so each bench run leaves a
/// structured artifact next to its human-readable stdout.
class Report {
 public:
  explicit Report(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;
  ~Report() { write(); }

  /// Records one headline scalar (e.g. "null_sink_overhead_pct").
  void value(const std::string& key, double v) {
    values_.emplace_back(key, obs::json_number(v));
  }
  void value(const std::string& key, std::uint64_t v) {
    values_.emplace_back(key, std::to_string(v));
  }
  void value(const std::string& key, const std::string& v) {
    values_.emplace_back(key, obs::json_quote(v));
  }
  /// Bare JSON boolean — `stigreport` expects e.g. `"alloc_tracking":
  /// false` unquoted (the same shape stigperf emits).
  void value(const std::string& key, bool v) {
    values_.emplace_back(key, v ? "true" : "false");
  }

  /// Starts a new table section; returns its index for `add_row`.
  std::size_t table(std::string title, std::vector<std::string> columns) {
    tables_.push_back(
        TableData{std::move(title), std::move(columns), {}});
    return tables_.size() - 1;
  }

  /// Appends one row of already-JSON-rendered cells to table `index`.
  void add_row(std::size_t index, std::vector<std::string> json_cells) {
    tables_.at(index).rows.push_back(std::move(json_cells));
  }

  /// Writes `BENCH_<name>.json` in the working directory. Idempotent;
  /// returns false on I/O failure (reported once on stderr).
  bool write() {
    if (written_) return true;
    written_ = true;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "could not write " << path << "\n";
      return false;
    }
    out << "{\n  \"bench\": " << obs::json_quote(name_)
        << ",\n  \"wall_seconds\": " << obs::json_number(wall)
        << ",\n  \"values\": {";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "    "
          << obs::json_quote(values_[i].first) << ": " << values_[i].second;
    }
    out << (values_.empty() ? "" : "\n  ") << "},\n  \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const TableData& td = tables_[t];
      out << (t == 0 ? "\n" : ",\n") << "    {\"title\": "
          << obs::json_quote(td.title) << ", \"columns\": [";
      for (std::size_t c = 0; c < td.columns.size(); ++c) {
        out << (c == 0 ? "" : ", ") << obs::json_quote(td.columns[c]);
      }
      out << "], \"rows\": [";
      for (std::size_t r = 0; r < td.rows.size(); ++r) {
        out << (r == 0 ? "\n" : ",\n") << "      [";
        for (std::size_t c = 0; c < td.rows[r].size(); ++c) {
          out << (c == 0 ? "" : ", ") << td.rows[r][c];
        }
        out << "]";
      }
      out << (td.rows.empty() ? "" : "\n    ") << "]}";
    }
    out << (tables_.empty() ? "" : "\n  ") << "]\n}\n";
    if (!out) {
      std::cerr << "could not write " << path << "\n";
      return false;
    }
    std::cout << "wrote " << path << "\n";
    return true;
  }

 private:
  struct TableData {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<TableData> tables_;
  bool written_ = false;
};

/// Minimal fixed-width table printer for paper-style result rows. When
/// bound to a `Report`, every row is also recorded in the JSON artifact.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int width = 14)
      : width_(width) {
    print_header(headers);
  }

  /// Prints *and* records: rows go to stdout and to `report`'s JSON under
  /// a table section named `title`.
  Table(std::vector<std::string> headers, Report& report, std::string title,
        int width = 14)
      : width_(width), report_(&report) {
    table_index_ = report.table(std::move(title), headers);
    print_header(headers);
  }

  template <typename... Ts>
  void row(const Ts&... cells) {
    ((std::cout << std::setw(width_) << fmt(cells)), ...);
    std::cout << '\n';
    if (report_ != nullptr) {
      report_->add_row(table_index_, {json(cells)...});
    }
  }

 private:
  void print_header(const std::vector<std::string>& headers) {
    for (const auto& h : headers) std::cout << std::setw(width_) << h;
    std::cout << '\n';
    for (std::size_t i = 0; i < headers.size(); ++i) {
      std::cout << std::setw(width_) << std::string(width_ - 2, '-');
    }
    std::cout << '\n';
  }

  static std::string fmt(double v) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << v;
    return os.str();
  }
  static std::string fmt(const std::string& s) { return s; }
  static std::string fmt(const char* s) { return s; }
  template <typename T>
  static std::string fmt(T v) {
    return std::to_string(v);
  }

  static std::string json(double v) { return obs::json_number(v); }
  static std::string json(const std::string& s) {
    return obs::json_quote(s);
  }
  static std::string json(const char* s) { return obs::json_quote(s); }
  static std::string json(bool v) { return v ? "true" : "false"; }
  template <typename T>
  static std::string json(T v) {
    return std::to_string(v);
  }

  int width_;
  Report* report_ = nullptr;
  std::size_t table_index_ = 0;
};

}  // namespace stig::bench
