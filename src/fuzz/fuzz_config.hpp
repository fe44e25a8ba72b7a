// FuzzConfig — one point in the schedule-fuzzing search space.
//
// A config pins everything a case needs to be reproducible bit-for-bit:
// the protocol, the scheduler class and its parameters, the swarm size
// (geometry derives from the seed via the stigsim scatter recipe), the
// payload, and an optional injected decode fault. `sample_config` draws a
// config from a case seed; `instant_budget` computes the termination bound
// the timeout oracle enforces; `equivalence_class` lists the protocols that
// must deliver identical payloads under the same schedule (the differential
// oracle); `config_hash` fingerprints the canonical serialization for
// repro file names.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "fault/fault_plan.hpp"
#include "geom/vec.hpp"
#include "sim/types.hpp"

namespace stig::fuzz {

/// A one-shot injected decode fault: robot `robot` misreads its
/// `nth_bit`-th decoded signal. Used to prove the pipeline end to end —
/// the CRC must catch the flip, the delivery oracle must see the loss.
struct FaultSpec {
  std::size_t robot = 1;
  std::uint64_t nth_bit = 10;
};

/// One fuzz case. Every field participates in the canonical serialization,
/// so equal configs hash equal and replay identically.
struct FuzzConfig {
  std::uint64_t seed = 1;  ///< Placement + frames + scheduler randomness.
  core::ProtocolKind protocol = core::ProtocolKind::sync2;
  core::SchedulerKind scheduler = core::SchedulerKind::bernoulli;
  double p = 0.5;                   ///< Bernoulli activation probability.
  std::size_t subset_size = 1;      ///< KSubset scheduler subset size.
  std::size_t fairness_bound = 64;
  std::size_t n = 2;                ///< Swarm size (>= 2).
  std::vector<std::uint8_t> payload;
  bool broadcast = false;           ///< One-to-all from robot 0; otherwise
                                    ///< unicast 0 -> 1.
  sim::Time max_instants = 0;       ///< 0 = use instant_budget(*this).
  std::optional<FaultSpec> fault;   ///< Injected decode fault, if any.

  // Fault-masking dimensions (src/fault). group_size == 1 and an empty
  // plan mean the classic single-lane run; neither contributes to the
  // canonical serialization then, so pre-existing config hashes are
  // unchanged. group_size >= 2 runs the case through
  // fault::RedundantChatNetwork with `fault_plan` applied (plan robots are
  // physical indices: lane * n + logical).
  std::size_t group_size = 1;
  fault::FaultPlan fault_plan;
};

/// True for the synchronous-side protocols (sync2/sliced/ksegment).
[[nodiscard]] bool is_synchronous(core::ProtocolKind kind);

/// The protocols that must behave identically to `kind` at swarm size `n`
/// (including `kind` itself, first). Singleton when nothing else applies.
[[nodiscard]] std::vector<core::ProtocolKind> equivalence_class(
    core::ProtocolKind kind, std::size_t n);

/// The chat placement stigsim and the fuzzer share: sim::scatter from
/// Rng(seed ^ 0x5745) with pairwise gap >= 3 in [-30, 30]^2, the box widened
/// by sqrt(n / 128) above n = 256 so large swarms do not jam it. Geometry is
/// derived, never stored. Throws std::invalid_argument if the attempt budget
/// runs out.
[[nodiscard]] std::vector<geom::Vec2> scatter(std::uint64_t seed,
                                              std::size_t n);

/// Instants the config is allowed before the timeout oracle trips.
/// Scales with frame bits, swarm size, and the scheduler's activation rate.
[[nodiscard]] sim::Time instant_budget(const FuzzConfig& cfg);

/// Deterministically draws a config from `case_seed` (protocol x scheduler
/// x n x payload x broadcast). Never arms a decode FaultSpec; a fraction of
/// cases draw the fault-masking dimensions (group_size in {2, 3} plus a
/// FaultPlan confined to lanes 1..g-1, so lane 0 always witnesses the
/// fault-free behaviour and the delivery oracle stays exact). A further
/// fraction of the *single-lane* remainder draw one transient-corruption
/// fault (a `corrupt:` plan entry) instead — the arbitrary-state mode whose
/// oracle is run_case's stabilization path. Both draws come last, so the
/// base config a given seed produces is unchanged from earlier corpora.
[[nodiscard]] FuzzConfig sample_config(std::uint64_t case_seed);

/// Forces the fault-masking dimensions onto `cfg` (stigfuzz --faults):
/// group size and plan derived from cfg.seed, lane 0 kept clean. Replaces
/// any existing plan; refreshes max_instants.
void force_fault_dimensions(FuzzConfig& cfg);

/// Forces the arbitrary-state dimension onto `cfg` (stigfuzz --corrupt):
/// one seed-derived transient corruption, single-lane. Replaces any
/// existing plan and group size; refreshes max_instants.
void force_corrupt_dimensions(FuzzConfig& cfg);

/// ChatNetworkOptions for running `cfg` as protocol `kind` (the
/// differential oracle substitutes class members for cfg.protocol).
[[nodiscard]] core::ChatNetworkOptions to_options(const FuzzConfig& cfg,
                                                  core::ProtocolKind kind);

/// Canonical one-line serialization (key=value, fixed order).
[[nodiscard]] std::string canonical(const FuzzConfig& cfg);

/// FNV-1a over canonical(cfg).
[[nodiscard]] std::uint64_t config_hash(const FuzzConfig& cfg);

}  // namespace stig::fuzz
