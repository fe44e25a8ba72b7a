#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <tuple>

#include "fault/injector.hpp"
#include "fault/redundant_group.hpp"
#include "obs/watchdog.hpp"

namespace stig::fuzz {
namespace {

/// (receiver, sender, payload) — the order-insensitive delivery signature
/// the delivery and differential oracles compare.
using DeliverySig =
    std::tuple<std::size_t, std::size_t, std::vector<std::uint8_t>>;

/// Queues `payload` from robot 0: to every robot on a broadcast case, to
/// robot 1 otherwise. `Net` is a ChatNetwork or a RedundantChatNetwork.
template <class Net>
void send_from_robot0(Net& net, const FuzzConfig& cfg,
                      std::span<const std::uint8_t> payload) {
  if (cfg.broadcast) {
    net.broadcast(0, payload);
  } else {
    net.send(0, 1, payload);
  }
}

/// Appends every delivery `net` has made so far, robot by robot.
void collect_deliveries(const core::ChatNetwork& net, std::size_t n,
                        std::vector<DeliverySig>& out) {
  for (std::size_t i = 0; i < n; ++i) {
    for (const core::Delivery& d : net.received(i)) {
      out.emplace_back(i, d.from, d.payload);
    }
  }
}

struct RunOutcome {
  bool constructed = false;  ///< Reached the end without throwing.
  bool watchdog = false;     ///< WatchdogError unwound the run.
  std::string error;
  bool quiescent = false;
  sim::Time instants = 0;
  std::vector<DeliverySig> deliveries;
  sim::ScheduleLog log;
};

RunOutcome run_one(const FuzzConfig& cfg, core::ProtocolKind kind,
                   bool apply_fault, obs::cov::CovMap* cov = nullptr) {
  RunOutcome out;
  core::ChatNetworkOptions opt = to_options(cfg, kind);
  opt.record_schedule = &out.log;

  obs::WatchdogOptions wopt;
  wopt.abort_on_violation = true;
  wopt.check_granular = core::has_granular_containment(kind);
  std::vector<geom::Vec2> positions = scatter(cfg.seed, cfg.n);
  obs::Watchdog watchdog(wopt, positions);

  try {
    core::ChatNetwork net(positions, opt);
    net.attach_event_sink(&watchdog);
    net.attach_coverage(cov);
    if (apply_fault && cfg.fault) {
      net.inject_decode_fault(cfg.fault->robot % cfg.n, cfg.fault->nth_bit);
    }
    send_from_robot0(net, cfg, cfg.payload);
    out.quiescent = net.run_until_quiescent(instant_budget(cfg));
    // Settle: quiescence means the sender finished; a few more instants
    // let every receiver's decode catch up (same tail stigsim runs). A
    // timed-out run skips it — it is already a failure, and running on
    // would let a shrunk budget "pass" on work done past the budget.
    if (out.quiescent) net.run(is_synchronous(kind) ? 4 : 512);
    out.instants = net.engine().now();
    collect_deliveries(net, cfg.n, out.deliveries);
    std::sort(out.deliveries.begin(), out.deliveries.end());
    out.constructed = true;
  } catch (const obs::WatchdogError& e) {
    out.watchdog = true;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

std::vector<DeliverySig> expected_deliveries(const FuzzConfig& cfg) {
  std::vector<DeliverySig> expect;
  if (cfg.broadcast) {
    for (std::size_t i = 1; i < cfg.n; ++i) {
      expect.emplace_back(i, std::size_t{0}, cfg.payload);
    }
  } else {
    expect.emplace_back(std::size_t{1}, std::size_t{0}, cfg.payload);
  }
  return expect;
}

std::string describe(const std::vector<DeliverySig>& got,
                     const std::vector<DeliverySig>& want) {
  std::ostringstream out;
  out << "expected " << want.size() << " delivery(ies), got " << got.size();
  for (const auto& [to, from, payload] : got) {
    out << " [" << from << "->" << to << " " << payload.size() << "B]";
  }
  return out.str();
}

/// Classifies one protocol run against the delivery + termination oracles;
/// FailureKind::none when both held.
FailureKind classify(const FuzzConfig& cfg, const RunOutcome& run,
                     const char* proto_name, std::string& detail) {
  if (run.watchdog) {
    detail = std::string(proto_name) + ": " + run.error;
    return FailureKind::watchdog_violation;
  }
  if (!run.constructed) {
    detail = std::string(proto_name) + ": " + run.error;
    return FailureKind::crash;
  }
  if (!run.quiescent) {
    std::ostringstream out;
    out << proto_name << ": not quiescent after "
        << instant_budget(cfg) << " instants";
    detail = out.str();
    return FailureKind::timeout;
  }
  const std::vector<DeliverySig> want = expected_deliveries(cfg);
  if (run.deliveries != want) {
    detail = std::string(proto_name) + ": " +
             describe(run.deliveries, want);
    return FailureKind::payload_mismatch;
  }
  return FailureKind::none;
}

/// The masked run: every lane is a full protocol run with its slice of the
/// fault plan injected; the oracles move up one level. Invariants are
/// checked per lane (report mode — a faulted lane's engine exception is a
/// tolerated member failure, not a case failure) plus the mask watchdog
/// over the vote; termination means no lane was still progressing when the
/// budget ran out (wedged lanes are the *expected* shape of a crash fault);
/// delivery compares the VOTED payloads against the fault-free expectation
/// — the crash-masking claim itself. The differential oracle is skipped:
/// redundancy, not protocol equivalence, is under test.
CaseResult run_case_masked(const FuzzConfig& cfg, obs::cov::CovMap* cov) {
  CaseResult result;
  const std::size_t g = cfg.group_size;
  const char* proto = core::protocol_kind_name(cfg.protocol);

  fault::RedundantOptions ropt;
  ropt.base = to_options(cfg, cfg.protocol);
  ropt.group_size = g;
  ropt.plan = cfg.fault_plan;
  ropt.record_schedules = true;

  // Stalled robots consume budget without progress, so the plan's total
  // stall time rides on top of the fault-free instant budget.
  sim::Time budget = instant_budget(cfg);
  for (const fault::StallFault& s : cfg.fault_plan.stalls) {
    budget += s.instants;
  }
  const sim::Time stall_window = std::max<sim::Time>(512, budget / 64);

  std::vector<geom::Vec2> positions = scatter(cfg.seed, cfg.n);
  obs::Watchdog mask_dog{obs::WatchdogOptions{}};
  std::vector<std::unique_ptr<obs::Watchdog>> lane_dogs;

  try {
    fault::RedundantChatNetwork net(positions, ropt);
    net.attach_coverage(cov);
    for (std::size_t l = 0; l < g; ++l) {
      obs::WatchdogOptions wopt;
      wopt.check_granular = core::has_granular_containment(cfg.protocol);
      const fault::FaultPlan& slice = net.injector(l).plan();
      // A burst corrupts decoded bits by design: the framing replay would
      // flag exactly the corruption the CRC is there to absorb. A jitter
      // shove may legitimately collide robots; the engine's own exception
      // settles the lane as a failed member.
      wopt.check_framing = slice.bursts.empty();
      wopt.check_separation = slice.jitters.empty();
      lane_dogs.push_back(std::make_unique<obs::Watchdog>(wopt, positions));
      net.attach_lane_sink(l, lane_dogs.back().get());
    }
    net.set_event_sink(&mask_dog);
    send_from_robot0(net, cfg, cfg.payload);
    const auto res = net.run_until_settled(
        budget, stall_window, is_synchronous(cfg.protocol) ? 4 : 512);

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::size_t l = 0; l < g; ++l) {
      digest ^= net.lane_log(l).digest();
      digest *= 0x100000001b3ULL;
      result.schedule_instants =
          std::max(result.schedule_instants, net.lane_log(l).instants());
    }
    result.schedule_digest = digest;
    result.instants = res.instants;

    for (std::size_t l = 0; l < g; ++l) {
      if (lane_dogs[l]->ok()) continue;
      const obs::WatchdogViolation& v = lane_dogs[l]->violations().front();
      result.kind = FailureKind::watchdog_violation;
      result.detail = std::string(proto) + " masked lane " +
                      std::to_string(l) + ": " + v.invariant + ": " +
                      v.detail;
      return result;
    }
    if (!mask_dog.ok()) {
      const obs::WatchdogViolation& v = mask_dog.violations().front();
      result.kind = FailureKind::watchdog_violation;
      result.detail =
          std::string(proto) + " mask: " + v.invariant + ": " + v.detail;
      return result;
    }
    if (res.timeout_lanes > 0) {
      std::ostringstream out;
      out << proto << " masked: " << res.timeout_lanes
          << " lane(s) still progressing after " << budget << " instants";
      result.kind = FailureKind::timeout;
      result.detail = out.str();
      return result;
    }
    std::vector<DeliverySig> got;
    for (std::size_t i = 0; i < cfg.n; ++i) {
      for (const fault::VotedDelivery& v : net.voted(i)) {
        got.emplace_back(i, v.from, v.payload);
      }
    }
    std::sort(got.begin(), got.end());
    const std::vector<DeliverySig> want = expected_deliveries(cfg);
    if (got != want) {
      result.kind = FailureKind::payload_mismatch;
      result.detail = std::string(proto) + " masked(g=" + std::to_string(g) +
                      "): " + describe(got, want);
      return result;
    }
  } catch (const std::exception& e) {
    result.kind = FailureKind::crash;
    result.detail = std::string(proto) + " masked: " + e.what();
  }
  return result;
}

/// One phase-A + phase-B stabilization run (see run_case_corrupted).
struct StabOutcome {
  bool constructed = false;
  std::string error;
  bool quiescent_a = false;
  bool quiescent_b = false;
  sim::Time instants = 0;
  std::vector<DeliverySig> phase_a;  ///< Deliveries up to the probe send.
  std::vector<DeliverySig> phase_b;  ///< Deliveries after it.
  sim::ScheduleLog log;
  std::uint64_t violations = 0;
  std::string violation_detail;
};

/// The stabilization oracle: a single-lane run whose plan schedules
/// transient corruptions. The corrupted run and a fault-free twin each
/// send the payload, run to quiescence plus a settle window (phase A),
/// then send a fresh probe and run again (phase B). While converging the
/// corrupted run may misroute or lose data — but may not deliver garbage
/// (the CRC owns that), may not trip any movement invariant, and must be
/// delivering again within the reconvergence budget. From the recovery
/// point on it must be indistinguishable: its phase-B transcript has to
/// equal the twin's.
CaseResult run_case_corrupted(const FuzzConfig& cfg, obs::cov::CovMap* cov) {
  CaseResult result;
  const char* proto = core::protocol_kind_name(cfg.protocol);
  const sim::Time budget = instant_budget(cfg);
  // The settle window must exceed the synchronous 3-idle-instant resync
  // rule so planted decoder garbage can age out before the probe.
  const sim::Time settle = is_synchronous(cfg.protocol) ? 8 : 512;
  // Probe payload: distinct from cfg.payload so a stale in-flight frame
  // cannot masquerade as the probe.
  const std::vector<std::uint8_t> probe = {
      0xA5, static_cast<std::uint8_t>(cfg.seed),
      static_cast<std::uint8_t>(cfg.seed >> 8)};

  const auto run_stab = [&](bool corrupt, obs::cov::CovMap* cmap) {
    StabOutcome out;
    core::ChatNetworkOptions opt = to_options(cfg, cfg.protocol);
    opt.record_schedule = &out.log;
    obs::WatchdogOptions wopt;
    wopt.check_granular = core::has_granular_containment(cfg.protocol);
    // A scrambled parser or cursor legitimately yields CRC-corrupt frames
    // while converging; the replayed-stream framing check would flag
    // exactly the damage the corruption planted.
    wopt.check_framing = !corrupt;
    // Recovery bound: the probe must land within one fresh budget (plus
    // the settle tail) of the corruption.
    wopt.reconverge_budget = corrupt ? budget + settle : 0;
    std::vector<geom::Vec2> positions = scatter(cfg.seed, cfg.n);
    obs::Watchdog dog(wopt, positions);
    try {
      core::ChatNetwork net(positions, opt);
      net.attach_event_sink(&dog);
      net.attach_coverage(cmap);
      if (corrupt) fault::arm_corruptions(net, cfg.fault_plan);
      send_from_robot0(net, cfg, cfg.payload);
      out.quiescent_a = net.run_until_quiescent(budget);
      if (out.quiescent_a) {
        net.run(settle);
        collect_deliveries(net, cfg.n, out.phase_a);
        send_from_robot0(net, cfg, probe);
        out.quiescent_b = net.run_until_quiescent(budget);
        if (out.quiescent_b) net.run(settle);
        std::vector<DeliverySig> all;
        collect_deliveries(net, cfg.n, all);
        // received() accumulates in arrival order per robot, so phase B is
        // the per-robot suffix: everything not already counted in phase A.
        std::sort(out.phase_a.begin(), out.phase_a.end());
        std::sort(all.begin(), all.end());
        out.phase_b = all;
        for (const DeliverySig& sig : out.phase_a) {
          const auto it = std::find(out.phase_b.begin(), out.phase_b.end(),
                                    sig);
          if (it != out.phase_b.end()) out.phase_b.erase(it);
        }
      }
      out.instants = net.engine().now();
      dog.finalize(out.instants);
      out.constructed = true;
      out.violations = dog.total_violations();
      if (!dog.ok()) {
        const obs::WatchdogViolation& v = dog.violations().front();
        out.violation_detail = v.invariant + ": " + v.detail;
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  };

  const StabOutcome run = run_stab(/*corrupt=*/true, cov);
  result.schedule_digest = run.log.digest();
  result.schedule_instants = run.log.instants();
  result.instants = run.instants;

  if (!run.constructed) {
    result.kind = FailureKind::crash;
    result.detail = std::string(proto) + " corrupted: " + run.error;
    return result;
  }
  if (run.violations > 0) {
    result.kind = FailureKind::watchdog_violation;
    result.detail =
        std::string(proto) + " corrupted: " + run.violation_detail;
    return result;
  }
  if (!run.quiescent_a || !run.quiescent_b) {
    std::ostringstream out;
    out << proto << " corrupted: phase " << (run.quiescent_a ? "B" : "A")
        << " not quiescent after " << budget << " instants";
    result.kind = FailureKind::timeout;
    result.detail = out.str();
    return result;
  }
  // Payload integrity during convergence: misrouted or lost deliveries are
  // tolerated, fabricated ones are not — every phase-A payload must be the
  // one actually injected.
  for (const auto& [to, from, payload] : run.phase_a) {
    if (payload != cfg.payload) {
      result.kind = FailureKind::payload_mismatch;
      result.detail = std::string(proto) +
                      " corrupted: phase A delivered a payload nobody sent";
      return result;
    }
  }

  // Post-recovery transcript: the probe phase must be bit-for-bit the
  // fault-free twin's.
  const StabOutcome twin = run_stab(/*corrupt=*/false, nullptr);
  std::string twin_detail;
  if (!twin.constructed || twin.violations > 0 || !twin.quiescent_a ||
      !twin.quiescent_b) {
    // The config is broken without any corruption: classify as the plain
    // failure it is so the shrinker can drop the corrupt spec entirely.
    if (!twin.constructed) {
      result.kind = FailureKind::crash;
      result.detail = std::string(proto) + " twin: " + twin.error;
    } else if (twin.violations > 0) {
      result.kind = FailureKind::watchdog_violation;
      result.detail = std::string(proto) + " twin: " + twin.violation_detail;
    } else {
      result.kind = FailureKind::timeout;
      result.detail = std::string(proto) + " twin: not quiescent within " +
                      std::to_string(budget) + " instants";
    }
    return result;
  }
  if (run.phase_b != twin.phase_b) {
    result.kind = FailureKind::stabilization_mismatch;
    result.detail = std::string(proto) + " corrupted: probe transcript " +
                    describe(run.phase_b, twin.phase_b) +
                    " (vs fault-free twin)";
    return result;
  }
  return result;
}

}  // namespace

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::none: return "none";
    case FailureKind::payload_mismatch: return "payload_mismatch";
    case FailureKind::differential_mismatch: return "differential_mismatch";
    case FailureKind::watchdog_violation: return "watchdog_violation";
    case FailureKind::timeout: return "timeout";
    case FailureKind::crash: return "crash";
    case FailureKind::stabilization_mismatch: return "stabilization_mismatch";
  }
  return "none";
}

FailureKind failure_kind_from_name(const std::string& name) {
  for (FailureKind k :
       {FailureKind::payload_mismatch, FailureKind::differential_mismatch,
        FailureKind::watchdog_violation, FailureKind::timeout,
        FailureKind::crash, FailureKind::stabilization_mismatch}) {
    if (name == failure_kind_name(k)) return k;
  }
  return FailureKind::none;
}

CaseResult run_case(const FuzzConfig& cfg, obs::cov::CovMap* cov) {
  // A one-shot decode flip (the --inject pipeline self-test) forces the
  // single-lane path: the flip itself is under test, and the masked run
  // has no receiver to arm it on.
  if (cfg.group_size > 1 && !cfg.fault) return run_case_masked(cfg, cov);
  // Single-lane transient corruption: the self-stabilization oracle.
  if (cfg.group_size == 1 && !cfg.fault_plan.corrupts.empty()) {
    return run_case_corrupted(cfg, cov);
  }
  CaseResult result;
  const RunOutcome primary =
      run_one(cfg, cfg.protocol, /*apply_fault=*/true, cov);
  result.schedule_digest = primary.log.digest();
  result.schedule_instants = primary.log.instants();
  result.instants = primary.instants;

  result.kind = classify(cfg, primary,
                         core::protocol_kind_name(cfg.protocol),
                         result.detail);
  if (result.kind != FailureKind::none) return result;

  // Differential oracle. A faulted run is supposed to diverge from its
  // clean siblings, so injection disables the comparison.
  if (cfg.fault) return result;
  for (core::ProtocolKind peer : equivalence_class(cfg.protocol, cfg.n)) {
    if (peer == cfg.protocol) continue;
    const RunOutcome alt = run_one(cfg, peer, /*apply_fault=*/false);
    result.kind = classify(cfg, alt, core::protocol_kind_name(peer),
                           result.detail);
    if (result.kind != FailureKind::none) return result;
    if (alt.deliveries != primary.deliveries) {
      result.kind = FailureKind::differential_mismatch;
      result.detail = std::string(core::protocol_kind_name(cfg.protocol)) +
                      " vs " + core::protocol_kind_name(peer) +
                      " delivered different payload sets";
      return result;
    }
  }
  return result;
}

}  // namespace stig::fuzz
