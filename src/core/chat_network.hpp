// ChatNetwork — the library's main entry point.
//
// Wraps the SSM engine, a scheduler and a fleet of protocol robots behind a
// message-passing API addressed by simulator robot index:
//
//   stig::core::ChatNetworkOptions opt;
//   opt.synchrony = Synchrony::synchronous;
//   opt.caps.sense_of_direction = true;
//   ChatNetwork net(positions, opt);
//   net.send(0, 3, payload);
//   net.run_until_quiescent(100'000);
//   for (const auto& m : net.received(3)) { ... }
//
// The protocol is selected from (synchrony, capabilities, robot count)
// exactly along the paper's lattice: Sync2 / SyncSliced(by_ids |
// lexicographic | relative) / Async2 / AsyncN, plus the k-segment variant on
// request. Robot frames are randomized within what the declared
// capabilities permit (rotation only without sense of direction, arbitrary
// units always, one common handedness), so running the network *is* a test
// that the protocols use no capability they were not granted.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/capabilities.hpp"
#include "geom/vec.hpp"
#include "obs/report.hpp"
#include "proto/common.hpp"
#include "sim/engine.hpp"
#include "sim/schedule_log.hpp"

namespace stig::core {

/// Which protocol ChatNetwork instantiates.
enum class ProtocolKind : unsigned char {
  automatic,  ///< Pick from synchrony, capabilities and robot count.
  sync2,      ///< Section 3.1 (requires n == 2, synchronous).
  sliced,     ///< Sections 3.2-3.4 (synchronous, any n).
  ksegment,   ///< Section 5 extension (synchronous, any n).
  async2,     ///< Section 4.1 (requires n == 2, asynchronous).
  asyncn,     ///< Section 4.2 (asynchronous, any n).
};

/// Scheduler used in asynchronous mode.
enum class SchedulerKind : unsigned char {
  bernoulli,    ///< Independent activation with probability p.
  centralized,  ///< Exactly one robot per instant, round-robin.
  ksubset,      ///< A random k-subset per instant.
  adversarial,  ///< Starves one robot to the fairness bound, rotating.
};

/// Stable lower-case name for a protocol kind ("sync2", "asyncn", ...).
[[nodiscard]] const char* protocol_kind_name(ProtocolKind kind);
/// Whether the watchdog's granular-containment invariant holds for `kind`:
/// true for the granular protocols (sliced, ksegment, asyncn). Sync2 and
/// Async2 signal on the segment joining the two robots (the unbounded
/// Async2 drifts apart by design — experiment E8).
[[nodiscard]] bool has_granular_containment(ProtocolKind kind);
/// Stable lower-case name for a scheduler kind ("bernoulli", ...).
[[nodiscard]] const char* scheduler_kind_name(SchedulerKind kind);
/// Inverse of protocol_kind_name ("auto" included); nullopt when unknown.
[[nodiscard]] std::optional<ProtocolKind> protocol_from_name(
    std::string_view name);
/// Inverse of scheduler_kind_name; nullopt when unknown.
[[nodiscard]] std::optional<SchedulerKind> scheduler_from_name(
    std::string_view name);

/// Configuration for ChatNetwork.
struct ChatNetworkOptions {
  Synchrony synchrony = Synchrony::synchronous;
  Capabilities caps;
  ProtocolKind protocol = ProtocolKind::automatic;

  double sigma = 0.25;  ///< Max travel per activation (global units).
  std::uint64_t seed = 1;  ///< Frame randomization + scheduler randomness.
  bool randomize_frames = true;  ///< Random units (and rotations when sense
                                 ///< of direction is absent).
  bool mirrored_frames = false;  ///< Left-handed frames for every robot
                                 ///< (chirality holds either way).
  bool record_positions = false;

  // Asynchronous scheduling.
  SchedulerKind scheduler = SchedulerKind::bernoulli;
  double activation_probability = 0.5;
  std::size_t subset_size = 1;
  std::size_t fairness_bound = 64;

  // Protocol extras.
  unsigned sync2_bits_per_symbol = 1;        ///< Section 3.1 byte remark.
  bool async2_banded = false;                ///< Bounded-footprint variant.
  std::size_t ksegment_k = 4;                ///< Section 5 index base.
  geom::Vec2 flock_velocity{0.0, 0.0};       ///< Section 5 flocking
                                             ///< (global units/instant,
                                             ///< sliced protocol only).

  // Model stressors (Section 5 discussion), forwarded to the engine.
  double observation_quantum = 0.0;  ///< Sensor grid; 0 = ideal.
  sim::Time observation_delay = 0;   ///< Stale observations; 0 = atomic.
  double visibility_radius = 0.0;    ///< Limited visibility; 0 = unlimited.

  // Fuzz/replay hooks (not owned; must outlive the network).
  sim::ScheduleLog* record_schedule = nullptr;  ///< Capture activations.
  const sim::ScheduleLog* replay_schedule = nullptr;  ///< Play back a
                                                      ///< recorded schedule
                                                      ///< instead of
                                                      ///< sampling one.
};

/// A delivered message, in simulator indices.
struct Delivery {
  sim::RobotIndex from = 0;
  sim::RobotIndex to = 0;      ///< Equals `from` for broadcasts.
  bool broadcast = false;      ///< One-to-all message.
  std::vector<std::uint8_t> payload;
};

class ChatNetwork {
 public:
  /// Creates the swarm at the given global positions (pairwise distinct).
  ChatNetwork(std::vector<geom::Vec2> positions, ChatNetworkOptions options);

  /// Queues `payload` from robot `from` to robot `to` over the motion
  /// channel.
  void send(sim::RobotIndex from, sim::RobotIndex to,
            std::span<const std::uint8_t> payload);

  /// Queues `payload` from robot `from` to *every* robot: signaled once on
  /// the sender's own diameter, decoded by all (Section 5 one-to-all).
  void broadcast(sim::RobotIndex from,
                 std::span<const std::uint8_t> payload);

  /// Advances one instant and collects deliveries.
  void step();
  /// Advances `instants` instants.
  void run(sim::Time instants);
  /// Runs until every queued message has been fully transmitted (and hence
  /// delivered — protocols only complete a bit once its receipt is
  /// guaranteed), or `max_instants` elapse. Returns true on quiescence.
  bool run_until_quiescent(sim::Time max_instants);

  /// True when no robot has bits left to send. When a fault interceptor is
  /// attached (see `attach_step_interceptor`), robots it reports crashed
  /// are exempt: their outboxes can never drain, and waiting on them would
  /// make every faulted run a timeout.
  [[nodiscard]] bool quiescent() const;

  /// Messages delivered to robot `i` so far (in decode order).
  [[nodiscard]] const std::vector<Delivery>& received(
      sim::RobotIndex i) const {
    return received_.at(i);
  }
  /// Drains robot `i`'s deliveries (for layered services such as
  /// MulticastService that post-process them).
  [[nodiscard]] std::vector<Delivery> take_received(sim::RobotIndex i) {
    std::vector<Delivery> out;
    out.swap(received_.at(i));
    return out;
  }
  /// Messages robot `i` decoded that were addressed to someone else.
  [[nodiscard]] const std::vector<Delivery>& overheard(
      sim::RobotIndex i) const {
    return overheard_.at(i);
  }

  [[nodiscard]] std::size_t robot_count() const {
    return engine_->robot_count();
  }
  [[nodiscard]] const proto::ChatStats& stats(sim::RobotIndex i) const {
    return chat_.at(i)->stats();
  }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const sim::Engine& engine() const { return *engine_; }
  [[nodiscard]] ProtocolKind protocol_kind() const { return kind_; }

  /// Routes telemetry from the engine *and* every protocol robot into
  /// `sink` (not owned; null detaches): the run becomes a queryable
  /// timeline of Activation/Move/PhaseEnter/Bit*/Frame*/Ack* events.
  void attach_event_sink(obs::EventSink* sink);

  /// Registers engine-level metrics (step wall time) into `registry` (not
  /// owned; null detaches). Event-derived metrics come from attaching an
  /// obs::MetricsSink via `attach_event_sink`.
  void attach_metrics(obs::MetricsRegistry* registry);

  /// Attaches a coverage map (not owned; null detaches): the engine records
  /// sched-domain activation-class 2-grams, every protocol robot records
  /// proto-domain phase-transition edges (prefixed with the protocol name)
  /// and frame-domain parser outcomes, and the network itself records one
  /// proto-domain `<protocol>.enter -> naming.<mode>` edge pinning which
  /// naming construction this configuration exercised. See obs/cov.hpp.
  void attach_coverage(obs::cov::CovMap* map);

  /// Attaches a cycle/allocation profiler (not owned; null detaches):
  /// forwards to `sim::Engine::set_profiler` for the engine phases and adds
  /// the network's own `net.collect` phase around delivery collection. See
  /// obs/prof.hpp for the cost model.
  void attach_profiler(obs::prof::Profiler* profiler);

  /// Summarizes the run so far: headline shape numbers (instants/bit,
  /// distance/bit, idle moves, min separation) plus per-robot counters.
  /// `wall_seconds` is left 0 — timing belongs to the caller.
  [[nodiscard]] obs::RunReport report() const;
  /// The protocol robot driving simulator robot `i` (for inspection).
  [[nodiscard]] const proto::ChatRobot& chat_robot(sim::RobotIndex i) const {
    return *chat_.at(i);
  }

  /// Arms a one-shot decode fault on robot `i`: `burst` consecutive decoded
  /// signals starting at its `nth_bit`-th (0-based) are misread. Throws if
  /// a fault is already armed on `i`. Fuzz/fault-harness hook — see
  /// proto::ChatRobot::inject_decode_fault.
  void inject_decode_fault(sim::RobotIndex i, std::uint64_t nth_bit,
                           std::uint64_t burst = 1) {
    chat_.at(i)->inject_decode_fault(nth_bit, burst);
  }

  /// Schedules a transient state corruption: after the moves of instant
  /// `at`, robot `i`'s state machine `kind` is overwritten with arbitrary
  /// values drawn purely from (network seed, i, at, kind) — replaying the
  /// same configuration replays the same damage bit-for-bit. Also arms
  /// stabilization on every robot so the drivers' recovery audits run.
  /// Emits a FaultInjected "corrupt_<target>" event and records a
  /// fault.plan -> fault.corrupt_<target> coverage edge when applied.
  /// Fuzz/fault-harness hook — see fault::arm_corruptions.
  void schedule_corruption(sim::RobotIndex i, sim::Time at,
                           proto::CorruptKind kind);

  /// Corruptions whose instant has passed (drivers were scrambled).
  [[nodiscard]] std::size_t corruptions_applied() const noexcept {
    return corrupt_next_;
  }
  /// Instant of the first applied corruption, if any was applied yet.
  [[nodiscard]] std::optional<sim::Time> first_corruption_instant()
      const noexcept {
    return first_corrupt_t_;
  }

  /// Attaches a fault-injection interceptor to the engine (not owned; null
  /// detaches). Beyond forwarding to `sim::Engine::set_step_interceptor`,
  /// the network also consults it in `quiescent()` so crash-stopped robots
  /// do not block termination.
  void attach_step_interceptor(sim::StepInterceptor* interceptor) {
    interceptor_ = interceptor;
    engine_->set_step_interceptor(interceptor);
  }

 private:
  void collect();

  /// One scheduled (not yet applied) transient corruption.
  struct ScheduledCorruption {
    sim::Time at = 0;
    sim::RobotIndex robot = 0;
    proto::CorruptKind kind = proto::CorruptKind::phase;
  };
  /// Applies due corruptions and updates the convergence/silence trackers
  /// for the instant just executed. Only called when corruptions are
  /// scheduled, so fault-free runs pay nothing.
  void track_stabilization();

  ChatNetworkOptions options_;
  ProtocolKind kind_ = ProtocolKind::automatic;
  std::unique_ptr<sim::Engine> engine_;
  sim::StepInterceptor* interceptor_ = nullptr;  ///< Not owned.
  obs::prof::Profiler* prof_ = nullptr;          ///< Not owned.
  obs::prof::PhaseId ph_collect_ = 0;
  obs::cov::CovMap* cov_ = nullptr;              ///< Not owned.
  std::vector<proto::ChatRobot*> chat_;  ///< Non-owning; engine owns.
  /// slot_to_engine_[i][slot] = simulator index of the robot that robot i's
  /// protocol calls `slot`.
  std::vector<std::vector<sim::RobotIndex>> slot_to_engine_;
  std::vector<std::vector<Delivery>> received_;
  std::vector<std::vector<Delivery>> overheard_;

  // Stabilization bookkeeping (inert unless schedule_corruption was
  // called). Tracks the two recovery metrics: convergence time (instants
  // from the first corruption to the next correct delivery) and silence
  // (trailing movement-signal-free rounds).
  obs::EventSink* sink_ = nullptr;        ///< Not owned; mirror of attach.
  std::vector<ScheduledCorruption> corrupts_;  ///< Sorted by instant.
  std::size_t corrupt_next_ = 0;          ///< First not-yet-applied index.
  std::optional<sim::Time> first_corrupt_t_;
  std::optional<sim::Time> converged_t_;  ///< First delivery after that.
  std::optional<sim::Time> last_signal_t_;
  std::uint64_t bits_seen_ = 0;
  std::uint64_t deliveries_at_corrupt_ = 0;
};

}  // namespace stig::core
