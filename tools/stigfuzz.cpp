// stigfuzz — schedule-fuzzing and differential conformance driver.
//
// Samples (protocol x scheduler x n x payload) configurations from case
// seeds, runs each under the engine with the invariant watchdog in abort
// mode, and checks the delivery, termination, and differential oracles
// (see src/fuzz/fuzzer.hpp). Every failure is shrunk to a minimal config
// (payload -> robots -> instants -> p) and written as repro_<hash>.json
// (plus repro_last.json) for `stigsim --replay`. Examples:
//
//   stigfuzz --cases 200 --seed 7
//   stigfuzz --cases 2000 --jobs 8
//   stigfuzz --corpus 1,2,3,4,5 --budget 60
//   stigfuzz --cases 1 --inject framing --out /tmp/repros
//   stigfuzz --faults --corpus 1,2,3 --out /tmp/repros
//   stigfuzz --cases 100000000 --seed 9 --budget 1500 --jobs 0 --cov soak
//            --out soak      # time-boxed soak (the nightly's shape)
//
// --jobs N fans cases across a par::BatchRunner pool. Case seeds derive
// from the master seed by index (par::derive_seed), so the verdicts AND
// schedule digests of --jobs 8 are byte-identical to --jobs 1; failures
// are reported, shrunk and written in seed order either way.
//
// Exit codes: 0 all cases passed; 1 at least one failure (repros written);
// 2 usage error; 3 runtime or I/O error.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flag_number.hpp"
#include "fuzz/batch.hpp"
#include "fuzz/cov_guided.hpp"
#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "obs/cov.hpp"
#include "par/seed.hpp"

namespace {

using namespace stig;

constexpr int kExitClean = 0;
constexpr int kExitFailures = 1;
constexpr int kExitUsage = 2;
constexpr int kExitRuntime = 3;

struct Args {
  std::size_t cases = 50;
  std::uint64_t seed = 1;
  double budget_seconds = 0.0;  ///< 0 = no time box.
  std::string out_dir = ".";
  std::vector<std::uint64_t> corpus;  ///< Fixed case seeds; overrides
                                      ///< random sampling when non-empty.
  std::string inject;                 ///< "" or "framing".
  bool faults = false;                ///< Force fault-masking dimensions.
  bool corrupt = false;               ///< Force the arbitrary-state mode.
  bool no_shrink = false;
  std::size_t max_shrink = 200;
  std::size_t jobs = 1;               ///< Worker threads; 0 = all cores.
  std::string cov_dir;                ///< "" = no COV artifact.
  bool cov_guided = false;            ///< Reorder seeds for early coverage.
  bool help = false;
};

void print_help() {
  std::cout <<
      "stigfuzz — schedule fuzzer / differential conformance harness\n\n"
      "  --cases N       number of random cases (default 50)\n"
      "  --seed S        master seed; case i uses a seed derived from it\n"
      "  --corpus A,B,C  run exactly these case seeds (smoke mode)\n"
      "  --budget SEC    stop sampling after SEC seconds (0 = no limit)\n"
      "  --out DIR       directory for repro_*.json (default .)\n"
      "  --inject framing  arm a one-shot decode-bit flip on the receiver\n"
      "                  in every case — proves the find/shrink/replay\n"
      "                  pipeline end to end\n"
      "  --faults        force the fault-masking dimensions on every case:\n"
      "                  a seed-derived group size (2-3 lanes) and\n"
      "                  FaultPlan (crash/stall/jitter/burst, lane 0 kept\n"
      "                  clean) — the whole batch runs crash-masked\n"
      "  --corrupt       force the arbitrary-state mode on every case: one\n"
      "                  seed-derived transient corruption (phase, cursor,\n"
      "                  parser or naming) mid-flight — every case must\n"
      "                  reconverge and match its fault-free twin's probe\n"
      "                  transcript (the self-stabilization oracle)\n"
      "  --no-shrink     write failures un-shrunk\n"
      "  --max-shrink N  shrink attempt cap per failure (default 200)\n"
      "  --jobs N        run cases on N worker threads (default 1;\n"
      "                  0 = all cores). Verdicts and schedule digests\n"
      "                  are identical for every N\n"
      "  --cov DIR       collect protocol/frame/sched/fault coverage and\n"
      "                  write DIR/COV_corpus.json (merged in scheduled\n"
      "                  seed order — byte-identical at any --jobs); each\n"
      "                  seed that adds edges is printed as it merges\n"
      "  --cov-guided    reorder the seed schedule round-robin across\n"
      "                  configuration classes so new coverage edges are\n"
      "                  reached early. Pure reorder: every case still\n"
      "                  runs bit-for-bit as it would blind\n\n"
      "oracles: delivery (bytes arrive intact), termination (quiescent\n"
      "within budget, no invariant violation), differential (equivalent\n"
      "protocols deliver identical payloads under the same schedule)\n\n"
      "exit codes: 0 clean; 1 failures found (repros written);\n"
      "            2 usage error; 3 runtime/I-O error\n";
}

bool parse(int argc, char** argv, Args& a) {
  const auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto num = [&](auto& out) {
      const char* v = need(i);
      return v != nullptr && cli::parse_number(flag, v, out);
    };
    const auto str = [&](std::string& out) {
      const char* v = need(i);
      if (v != nullptr) out = v;
      return v != nullptr;
    };
    if (flag == "--help" || flag == "-h") {
      a.help = true;
    } else if (flag == "--cases") {
      if (!num(a.cases)) return false;
    } else if (flag == "--seed") {
      if (!num(a.seed)) return false;
    } else if (flag == "--budget") {
      if (!num(a.budget_seconds)) return false;
    } else if (flag == "--out") {
      if (!str(a.out_dir)) return false;
    } else if (flag == "--corpus") {
      const char* v = need(i);
      if (!v) return false;
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        if (tok.empty()) continue;
        std::uint64_t seed = 0;
        if (!cli::parse_number(flag, tok, seed)) return false;
        a.corpus.push_back(seed);
      }
    } else if (flag == "--inject") {
      if (!str(a.inject)) return false;
      if (a.inject != "framing") {
        std::cerr << "--inject supports: framing\n";
        return false;
      }
    } else if (flag == "--faults") {
      a.faults = true;
    } else if (flag == "--corrupt") {
      a.corrupt = true;
    } else if (flag == "--no-shrink") {
      a.no_shrink = true;
    } else if (flag == "--max-shrink") {
      if (!num(a.max_shrink)) return false;
    } else if (flag == "--jobs") {
      if (!num(a.jobs)) return false;
    } else if (flag == "--cov") {
      if (!str(a.cov_dir)) return false;
    } else if (flag == "--cov-guided") {
      a.cov_guided = true;
    } else {
      std::cerr << "unknown flag: " << flag << " (see --help)\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return kExitUsage;
  if (args.help) {
    print_help();
    return kExitClean;
  }

  // Case seeds: the fixed corpus verbatim, or derived from the master seed
  // by case index (so --seed S --cases N is one reproducible batch, and
  // case i's seed does not depend on how many cases run before it).
  // Derived seeds are produced a chunk at a time, so a time-boxed soak with
  // a huge --cases holds memory constant; only --cov-guided, which reorders
  // the whole schedule up front, materializes them.
  std::vector<std::uint64_t> seeds = args.corpus;
  if (seeds.empty() && args.cov_guided) {
    for (std::size_t i = 0; i < args.cases; ++i) {
      seeds.push_back(par::derive_seed(args.seed, i));
    }
  }
  const bool derive_lazily = seeds.empty();
  const std::size_t total = derive_lazily ? args.cases : seeds.size();
  // Static reorder, computed before anything runs: deterministic in the
  // seed set, so replay, repro files and jobs-invariance are untouched.
  if (args.cov_guided) seeds = fuzz::guided_order(seeds);
  const bool collect_cov = args.cov_guided || !args.cov_dir.empty();

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // One-shot decode-bit flip early in the first frame on the receiver:
  // the CRC must reject the frame and the delivery oracle must see the
  // loss.
  const std::optional<fuzz::FaultSpec> fault =
      args.inject == "framing" ? std::optional(fuzz::FaultSpec{1, 10})
                               : std::nullopt;

  // Cases fan out across the pool a chunk at a time; the time budget is
  // checked at chunk boundaries, and failures are shrunk and written
  // sequentially, in seed order — identical output at any --jobs.
  const std::size_t chunk = std::max<std::size_t>(
      16, 4 * (args.jobs == 0
                   ? std::max<unsigned>(std::thread::hardware_concurrency(), 1)
                   : args.jobs));

  std::size_t ran = 0;
  std::size_t failures = 0;
  obs::cov::CovMap corpus_cov;  // Merged in scheduled seed order.
  std::vector<std::uint64_t> chunk_seeds;
  try {
    for (std::size_t begin = 0; begin < total; begin += chunk) {
      if (args.budget_seconds > 0.0 && elapsed() > args.budget_seconds) {
        std::cerr << "time budget reached after " << ran << " case(s)\n";
        break;
      }
      const std::size_t end = std::min(total, begin + chunk);
      chunk_seeds.clear();
      for (std::size_t i = begin; i < end; ++i) {
        chunk_seeds.push_back(derive_lazily ? par::derive_seed(args.seed, i)
                                            : seeds[i]);
      }
      const std::vector<fuzz::BatchCase> batch =
          fuzz::run_cases(chunk_seeds, fault, args.jobs, args.faults,
                          collect_cov, args.corrupt);
      ran += batch.size();
      for (const fuzz::BatchCase& bc : batch) {
        if (bc.cov != nullptr) {
          // Merge in scheduled order so the corpus map (and the novelty
          // narrative) never depends on which worker finished first. Only
          // a case that adds edges is reported.
          const std::uint64_t before = corpus_cov.distinct_edges();
          corpus_cov.merge_from(*bc.cov);
          if (corpus_cov.distinct_edges() > before) {
            std::cout << "cov: case " << bc.case_seed << " +"
                      << (corpus_cov.distinct_edges() - before)
                      << " edge(s) (total " << corpus_cov.distinct_edges()
                      << ")\n";
          }
        }
        if (bc.result.kind == fuzz::FailureKind::none) continue;

        ++failures;
        std::cerr << "case seed " << bc.case_seed << ": "
                  << fuzz::failure_kind_name(bc.result.kind) << " — "
                  << bc.result.detail << "\n";
        fuzz::FuzzConfig minimal = bc.config;
        fuzz::CaseResult minimal_result = bc.result;
        if (!args.no_shrink) {
          const fuzz::ShrinkResult s =
              fuzz::shrink(bc.config, bc.result, args.max_shrink);
          minimal = s.config;
          minimal_result = s.result;
          std::cerr << "  shrunk in " << s.attempts
                    << " attempt(s): payload " << bc.config.payload.size()
                    << "B -> " << minimal.payload.size() << "B, n "
                    << bc.config.n << " -> " << minimal.n << "\n";
        }
        fuzz::Repro repro;
        repro.config = minimal;
        repro.kind = minimal_result.kind;
        repro.detail = minimal_result.detail;
        repro.schedule_digest = minimal_result.schedule_digest;
        repro.schedule_instants = minimal_result.schedule_instants;
        std::string error;
        const auto path = fuzz::save_repro(args.out_dir, repro, &error);
        if (!path) {
          std::cerr << "error: " << error << "\n";
          return kExitRuntime;
        }
        std::cerr << "  wrote " << *path
                  << " (replay with: stigsim --replay " << *path << ")\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitRuntime;
  }

  if (!args.cov_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.cov_dir, ec);
    // The corrupted corpus exercises a different edge universe (the
    // fault.corrupt_* paths), so its map gets its own name — and its own
    // committed baseline under bench/baselines.
    const std::string stem = args.corrupt ? "corpus_corrupt" : "corpus";
    const std::string path =
        (std::filesystem::path(args.cov_dir) / ("COV_" + stem + ".json"))
            .string();
    std::ofstream out(path);
    if (!out) {
      std::cerr << "stigfuzz: could not write " << path << "\n";
      return kExitRuntime;
    }
    out << corpus_cov.render_json(stem);
    std::cout << "cov: " << corpus_cov.distinct_edges() << " edge(s), "
              << corpus_cov.total_hits() << " hit(s), "
              << corpus_cov.dropped() << " dropped -> " << path << "\n";
  }

  std::cout << "stigfuzz: " << ran << " case(s), " << failures
            << " failure(s), " << static_cast<int>(elapsed()) << "s\n";
  return failures == 0 ? kExitClean : kExitFailures;
}
