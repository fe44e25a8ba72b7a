// The SSM execution engine.
//
// Drives robot programs through the Suzuki–Yamashita semi-synchronous cycle:
// at each instant the scheduler picks a non-empty active set; every active
// robot observes the configuration *at that instant* (a two-phase update —
// all observations happen before any move is applied, matching "computes a
// position depending only on the system configuration at t_j"), computes a
// destination in its local frame, and travels toward it by at most sigma_r.
//
// World state lives in an epoch ring: one immutable position array per
// instant, kept for the last `observation_delay + 2` instants. Instant e's
// configuration occupies slot `e % capacity`; `positions()` is a span over
// the newest slot, observations read the (possibly stale) slots in place,
// and a step writes the next configuration into the slot it is about to
// recycle. Robots never receive copies of the configuration — every
// consumer shares the one array per instant (the PR-8 copy-on-write
// snapshot refactor; see DESIGN.md "Epoch snapshots").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "geom/point_grid.hpp"
#include "geom/vec.hpp"
#include "obs/cov.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/sink.hpp"
#include "sim/frame.hpp"
#include "sim/robot.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace stig::sim {

/// Static description of one robot: where it starts, how far it can travel
/// per activation, and how its private coordinate frame is oriented.
struct RobotSpec {
  geom::Vec2 position;          ///< Global position at t0.
  double sigma = 1.0;           ///< Max distance per activation (sigma_r).
  double frame_rotation = 0.0;  ///< CCW angle of local +y from global +y.
  double frame_unit = 1.0;      ///< Global length of one local unit (> 0).
  bool frame_mirrored = false;  ///< Left-handed frame when true.
  std::optional<VisibleId> id;  ///< Visible identifier (identified systems).
};

/// Engine construction options.
struct EngineOptions {
  bool record_positions = false;  ///< Keep full per-instant history.
  /// Two robots closer than this after a step is reported as a collision.
  double collision_distance = 1e-12;
  bool check_collisions = true;  ///< Throw CollisionError on collision.

  /// Sensor resolution (Section 5 "computation errors due to round off"):
  /// when positive, every *observed* position of another robot is snapped
  /// to this global grid before entering the observer's snapshot. The
  /// observer's own entry stays exact (odometry). 0 = ideal sensors.
  double observation_quantum = 0.0;

  /// Observation staleness (a step toward the CORDA-style non-atomic
  /// look-compute-move cycle): observed positions of *other* robots are
  /// `observation_delay` instants old; the robot's own entry stays current
  /// (odometry). 0 = the SSM's atomic cycle.
  Time observation_delay = 0;

  /// Limited visibility (Section 5 open problem): when positive, a robot's
  /// snapshot contains only robots within this global distance of it (the
  /// robot itself always included). 0 = unlimited visibility.
  double visibility_radius = 0.0;
};

/// Thrown when the collision-avoidance invariant is violated.
class CollisionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hook invoked inside every `Engine::step` — the fault-injection
/// subsystem's attachment point (src/fault). The engine consults it twice
/// per instant: once to let it mask the scheduler's activation set
/// (crash-stop and stuck-robot faults), and once after the moves are
/// applied to let it displace robots (transient perturbation). It never
/// participates in fault-free runs; the engine pays one branch when
/// detached.
class StepInterceptor {
 public:
  StepInterceptor() = default;
  StepInterceptor(const StepInterceptor&) = delete;
  StepInterceptor& operator=(const StepInterceptor&) = delete;
  virtual ~StepInterceptor() = default;

  /// Called with the activation set the scheduler proposed for instant
  /// `t`; may clear entries. Unlike a scheduler, the masked set MAY be
  /// empty — an instant where every would-be-active robot is crashed or
  /// stalled simply passes with no activations.
  virtual void on_activation(Time t, ActivationSet& active) = 0;

  /// Called after the instant's moves are applied, before the step
  /// completes; may displace robots in place (the span aliases the
  /// engine's next-instant ring slot). The engine emits a Teleport event
  /// for every modified position (so the watchdog re-anchors) and re-runs
  /// the collision check.
  virtual void on_positions(Time t, std::span<geom::Vec2> positions) = 0;

  /// True when robot `i` is crash-stopped at instant `t` (it will never be
  /// activated at or after `t`). Lets ChatNetwork's quiescence ignore
  /// outboxes that can never drain.
  [[nodiscard]] virtual bool crashed(RobotIndex i, Time t) const = 0;
};

/// Owns the robots, the scheduler and the world state; advances time.
class Engine {
 public:
  /// Precondition: specs and programs have equal non-zero size; positions
  /// are pairwise distinct; either every spec has a visible id (identified
  /// system) or none has (anonymous system).
  ///
  /// The constructor calls `Robot::initialize` on every program with the
  /// t0 snapshot (the paper's "all the robots are awake in t0").
  Engine(std::vector<RobotSpec> specs,
         std::vector<std::unique_ptr<Robot>> programs,
         std::unique_ptr<Scheduler> scheduler, EngineOptions options = {});

  /// Advances one instant.
  void step();

  /// Advances `instants` instants.
  void run(Time instants);

  /// Advances until `done()` returns true or `max_instants` elapse; returns
  /// true when the predicate fired.
  bool run_until(const std::function<bool()>& done, Time max_instants);

  [[nodiscard]] Time now() const noexcept { return t_; }
  [[nodiscard]] std::size_t robot_count() const noexcept {
    return specs_.size();
  }
  /// The current configuration — a view of the newest epoch-ring slot.
  /// Valid until `config_epoch()` leaves the live window (i.e. for the
  /// next `observation_delay + 1` steps); copy it to keep it longer.
  [[nodiscard]] std::span<const geom::Vec2> positions() const noexcept {
    return ring_[slot(t_)];
  }
  /// Epoch (== instant) of the configuration `positions()` views.
  [[nodiscard]] Time config_epoch() const noexcept { return t_; }
  /// True while the configuration of instant `e` is still held by the
  /// epoch ring (the last `observation_delay + 2` instants). Spans
  /// obtained at epoch `e` — `positions()`, `config(e)`, observation
  /// inputs — dangle once this turns false.
  [[nodiscard]] bool epoch_live(Time e) const noexcept {
    return e <= t_ && t_ - e < ring_.size();
  }
  /// The configuration at instant `e`. Precondition: `epoch_live(e)`.
  [[nodiscard]] std::span<const geom::Vec2> config(Time e) const {
    if (!epoch_live(e)) {
      throw std::out_of_range("Engine::config: epoch no longer live");
    }
    return ring_[slot(e)];
  }
  [[nodiscard]] const RobotSpec& spec(RobotIndex i) const {
    return specs_.at(i);
  }
  [[nodiscard]] const Frame& frame(RobotIndex i) const { return frames_.at(i); }
  [[nodiscard]] Robot& program(RobotIndex i) { return *programs_.at(i); }
  [[nodiscard]] const Robot& program(RobotIndex i) const {
    return *programs_.at(i);
  }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] bool identified() const noexcept { return identified_; }

  /// Routes telemetry events (Activation, Move, StepComplete, Collision,
  /// Teleport) into `sink`; null detaches. The hot path pays one branch
  /// when detached and one virtual dispatch per event when attached — the
  /// built-in Trace keeps updating either way.
  void set_event_sink(obs::EventSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] obs::EventSink* event_sink() const noexcept { return sink_; }

  /// Attaches a fault-injection interceptor (not owned; must outlive the
  /// engine; null detaches). See StepInterceptor.
  void set_step_interceptor(StepInterceptor* interceptor) noexcept {
    interceptor_ = interceptor;
  }
  [[nodiscard]] StepInterceptor* step_interceptor() const noexcept {
    return interceptor_;
  }

  /// Registers engine-level metrics into `registry` (currently the
  /// `engine.step_wall_ns` histogram: wall time per `step()` in
  /// nanoseconds); null detaches and stops the timing.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a cycle/allocation profiler (not owned; null detaches).
  /// Registers the engine phases — engine.step > {engine.sched,
  /// engine.observe, engine.compute, engine.commit, engine.emit} — and
  /// brackets each in every subsequent `step()`. Detached, the hot path
  /// pays one null check per phase; see obs/prof.hpp.
  void set_profiler(obs::prof::Profiler* profiler);
  [[nodiscard]] obs::prof::Profiler* profiler() const noexcept {
    return prof_;
  }

  /// Attaches a coverage map (not owned; null detaches). Records
  /// sched-domain 2-grams over interleaving classes: each instant's
  /// post-mask activation set is bucketed (none/one/few/most/all) and the
  /// (previous class -> current class) edge is hit. Detached, the hot path
  /// pays one null check per step.
  void set_coverage(obs::cov::CovMap* map);
  [[nodiscard]] obs::cov::CovMap* coverage() const noexcept { return cov_; }

  /// Builds the snapshot robot `i` would observe right now (exposed for
  /// tests; the engine itself uses `build_observation` during `step`).
  [[nodiscard]] Snapshot make_snapshot(RobotIndex i) const;

  /// The cold build of the snapshot robot `i` observes at instant `t`:
  /// itself at `config[i]`, every other robot j at `stale_config[j]`
  /// (quantized, and dropped beyond the visibility radius). The oracle the
  /// step path's warm observations must equal (exposed for tests).
  [[nodiscard]] Snapshot make_snapshot_at(
      RobotIndex i, std::span<const geom::Vec2> config,
      std::span<const geom::Vec2> stale_config, Time t) const;

  /// Engine indices in the order robot `i` observed them at t0 (the order
  /// of `Snapshot::robots` passed to `Robot::initialize`). Lets the
  /// application layer translate between simulator indices and each robot's
  /// local peer numbering.
  [[nodiscard]] std::vector<RobotIndex> initial_observation_order(
      RobotIndex i) const;

  /// Fault injection: instantly moves robot `i` to `global_position`
  /// (bypassing its program and sigma). Models a transient fault — a shove,
  /// a sensor glitch that mislocalized a recovery move, a restart at the
  /// wrong point. Used by the stabilization tests; never called by
  /// protocols. Throws CollisionError if the new position collides.
  ///
  /// Mutates the current epoch's slot in place: prior epochs (stale
  /// observations already in flight) keep their recorded positions, which
  /// is exactly what a physical shove does.
  void teleport(RobotIndex i, const geom::Vec2& global_position);

 private:
  /// One candidate row of a cold-built snapshot before sorting.
  struct SnapshotEntry {
    ObservedRobot obs;
    RobotIndex index = 0;
  };

  [[nodiscard]] std::size_t slot(Time e) const noexcept {
    return static_cast<std::size_t>(e % ring_.size());
  }

  /// The snapshot builder behind `make_snapshot_at`, writing into
  /// caller-provided storage so the hot loop can reuse engine-owned
  /// scratch instead of allocating per activation. `config` and
  /// `stale_config` are epoch-ring views — the builder reads them in
  /// place and never copies the configuration.
  ///
  /// `order` (anonymous systems; null for a cold build) holds the engine
  /// indices in the order this observer's previous observation listed
  /// them and is updated to this one's. When it lists every robot, the
  /// positions are written straight into `out.robots` in that order and
  /// insertion-sorted together with the row — linear when few robots
  /// changed places — and `out.self` is read from the sorted row. A tie
  /// or a NaN falls back to the cold build (entries in index order plus
  /// std::sort, then copied out), so the snapshot is always exactly the
  /// cold one. With a visibility radius the row stays empty: every build
  /// is cold.
  void build_observation(RobotIndex i, std::span<const geom::Vec2> config,
                         std::span<const geom::Vec2> stale_config, Time t,
                         std::vector<SnapshotEntry>& entries, Snapshot& out,
                         std::vector<std::uint32_t>* order = nullptr) const;

  /// Moved-peer bookkeeping (see Snapshot::moved); allocated at
  /// construction only for swarms of kMovedPeersMinRobots or more without
  /// a visibility radius, sized there so steady state allocates nothing.
  struct MovedIndex {
    /// One committed position change: robot `robot` got version `version`.
    struct Change {
      Time version;
      std::uint32_t robot;
    };
    /// Per robot, its position's version: 1 + the latest epoch at which it
    /// differs bitwise from the epoch before (or was shoved in place), 0
    /// while unchanged since t0.
    std::vector<Time> version;
    /// Changes in version order, at most 2n: compacted to each robot's
    /// latest change (so at most n) before it can overflow.
    std::vector<Change> log;
    /// Per observer, 1 + the stale epoch of its latest observation; 0 for
    /// the t0 snapshot `initialize` received, which no shove had touched
    /// yet. Robot j is listed for observer i iff version[j] > seen[i].
    std::vector<Time> seen;
    /// t0 slot of robot j for observer i: row i of an n x n table in
    /// anonymous systems, one shared row in identified ones (every
    /// observer's t0 snapshot is in id order).
    std::vector<std::uint32_t> t0_slot;
    /// Per-activation scratch behind `view`: a bitmap of listed slots and
    /// each listed slot's observed position.
    std::vector<std::uint64_t> slot_bits;
    std::vector<geom::Vec2> slot_pos;
    MovedPeers view;
  };

  /// Records that robot `j`'s position at epoch `e` differs from epoch
  /// e - 1, or was shoved in place (no-op when already recorded).
  void note_change(std::uint32_t j, Time e);

  /// Lists the moved peers of observer `i` reading `stale_config` (epoch
  /// `stale_e`) and points `out.moved` at them.
  void build_moved(RobotIndex i, std::span<const geom::Vec2> stale_config,
                   Time stale_e, Snapshot& out);

  /// Throws CollisionError for the lexicographically first colliding pair
  /// in `config` (same pair the all-pairs scan reports); grid-accelerated
  /// for large n, brute below the threshold.
  void check_collisions(std::span<const geom::Vec2> config);

  void step_impl();

  std::vector<RobotSpec> specs_;
  std::vector<std::unique_ptr<Robot>> programs_;
  std::unique_ptr<Scheduler> scheduler_;
  EngineOptions options_;
  std::vector<Frame> frames_;
  /// Hot per-robot state, structure-of-arrays: `specs_[i].sigma` pulled
  /// into a flat array so the commit loop touches 8 contiguous bytes per
  /// robot instead of striding over 72-byte RobotSpec rows.
  std::vector<double> sigmas_;
  /// Identified systems only: robot indices sorted by visible id, computed
  /// once. Ids never change, so appending snapshot entries in this order
  /// yields the id-sorted observation without a per-activation sort.
  std::vector<RobotIndex> id_order_;
  /// Anonymous systems only: per observer, the engine indices in the order
  /// of its previous observation (see build_observation). Each row's n
  /// entries are reserved at construction, so steady state allocates
  /// nothing; n^2 * 4 bytes in total.
  std::vector<std::vector<std::uint32_t>> prev_order_;
  /// The epoch ring: slot `e % ring_.size()` holds the configuration of
  /// instant e, for the last `observation_delay + 2` instants — newest
  /// (t_), every delayed-observation epoch down to t_ - delay, and one
  /// older epoch so `make_snapshot` between steps sees what an observer
  /// who committed during the previous instant saw. Slot capacity is
  /// recycled in place; a fault-free steady-state instant copies the
  /// configuration exactly once (current slot -> next slot).
  std::vector<std::vector<geom::Vec2>> ring_;
  std::unique_ptr<MovedIndex> moved_;  ///< Null when lists are off.
  std::vector<SnapshotEntry> entry_scratch_;
  Snapshot snap_scratch_;
  ActivationSet active_scratch_;
  std::vector<geom::Vec2> pre_scratch_;  ///< Interceptor before-image.
  geom::PointGrid grid_scratch_;         ///< Large-n collision checks.
  Trace trace_;
  obs::EventSink* sink_ = nullptr;
  StepInterceptor* interceptor_ = nullptr;
  obs::LogHistogram* step_wall_ = nullptr;  ///< Owned by the registry.
  obs::prof::Profiler* prof_ = nullptr;     ///< Not owned; null when off.
  obs::prof::PhaseId ph_step_ = 0, ph_sched_ = 0, ph_observe_ = 0,
                     ph_compute_ = 0, ph_commit_ = 0, ph_emit_ = 0;
  obs::cov::CovMap* cov_ = nullptr;  ///< Not owned; null when off.
  /// Interleaving-class state ids, interned once at set_coverage.
  obs::cov::StateId cov_class_[5] = {};  ///< none, one, few, most, all.
  obs::cov::StateId cov_prev_ = obs::cov::kInvalidState;
  Time t_ = 0;
  bool identified_ = false;
};

}  // namespace stig::sim
