#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <string>

namespace stig::sim {
namespace {

/// Below this swarm size the all-pairs scans stay: they are cache-friendly,
/// exactly reproduce the legacy answers, and the grid's build cost is not
/// yet paid back. At or above it, collision checks go through a PointGrid
/// (same doubles, same first pair — see geom/point_grid.hpp).
constexpr std::size_t kGridThreshold = 128;

/// Candidate radius for grid collision queries: collision_distance^2 with
/// enough slack to cover the ulp gap between `hypot` (the legacy predicate)
/// and the grid's squared-distance prefilter; every candidate is re-checked
/// with the exact legacy predicate.
double collision_radius2(double cd) { return cd * cd * 1.00001; }

/// `p` snapped to a sensor grid of pitch `q` (identity for q <= 0): what an
/// observer sees of another robot at global `p`, before its frame. The
/// snapshot and the moved-peer list both go through here, so they agree
/// bit for bit.
geom::Vec2 quantize(const geom::Vec2& p, double q) {
  if (q <= 0.0) return p;
  return geom::Vec2{std::round(p.x / q) * q, std::round(p.y / q) * q};
}

}  // namespace

Engine::Engine(std::vector<RobotSpec> specs,
               std::vector<std::unique_ptr<Robot>> programs,
               std::unique_ptr<Scheduler> scheduler, EngineOptions options)
    : specs_(std::move(specs)),
      programs_(std::move(programs)),
      scheduler_(std::move(scheduler)),
      options_(options),
      trace_(specs_.size(), options.record_positions) {
  if (specs_.empty() || specs_.size() != programs_.size() || !scheduler_) {
    throw std::invalid_argument("Engine: inconsistent construction");
  }
  const std::size_t with_id = static_cast<std::size_t>(
      std::count_if(specs_.begin(), specs_.end(),
                    [](const RobotSpec& s) { return s.id.has_value(); }));
  if (with_id != 0 && with_id != specs_.size()) {
    throw std::invalid_argument(
        "Engine: either all robots or none must have visible ids");
  }
  identified_ = with_id == specs_.size();

  const std::size_t n = specs_.size();
  ring_.resize(static_cast<std::size_t>(options_.observation_delay) + 2);
  std::vector<geom::Vec2>& p0 = ring_[0];
  frames_.reserve(n);
  sigmas_.reserve(n);
  p0.reserve(n);
  for (const RobotSpec& s : specs_) {
    if (s.frame_unit <= 0.0) {
      throw std::invalid_argument("Engine: frame_unit must be positive");
    }
    if (s.sigma <= 0.0) {
      throw std::invalid_argument("Engine: sigma must be positive");
    }
    frames_.emplace_back(s.position, s.frame_rotation, s.frame_unit,
                         s.frame_mirrored);
    sigmas_.push_back(s.sigma);
    p0.push_back(s.position);
  }

  bool coincident = false;
  if (n < kGridThreshold) {
    for (std::size_t i = 0; i < n && !coincident; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (geom::dist(p0[i], p0[j]) <= options_.collision_distance) {
          coincident = true;
          break;
        }
      }
    }
  } else {
    grid_scratch_.build(p0);
    const double r2 = collision_radius2(options_.collision_distance);
    for (std::size_t i = 0; i < n && !coincident; ++i) {
      grid_scratch_.for_each_within(p0[i], r2, [&](std::size_t j) {
        if (j != i &&
            geom::dist(p0[i], p0[j]) <= options_.collision_distance) {
          coincident = true;
        }
      });
    }
  }
  if (coincident) {
    throw std::invalid_argument(
        "Engine: initial positions must be pairwise distinct");
  }

  if (identified_) {
    id_order_.resize(n);
    for (std::size_t j = 0; j < n; ++j) id_order_[j] = j;
    std::sort(id_order_.begin(), id_order_.end(),
              [this](RobotIndex a, RobotIndex b) {
                return specs_[a].id.value() < specs_[b].id.value();
              });
  } else {
    prev_order_.resize(n);
    for (std::vector<std::uint32_t>& row : prev_order_) row.reserve(n);
  }

  if (n >= kMovedPeersMinRobots && options_.visibility_radius <= 0.0) {
    moved_ = std::make_unique<MovedIndex>();
    MovedIndex& m = *moved_;
    m.version.assign(n, 0);
    m.log.reserve(2 * n);
    m.seen.assign(n, 0);
    m.slot_bits.assign((n + 63) / 64, 0);
    m.slot_pos.resize(n);
    m.view = MovedPeers(m.slot_bits.data(), m.slot_bits.size(),
                        m.slot_pos.data());
    if (identified_) {
      m.t0_slot.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        m.t0_slot[id_order_[k]] = static_cast<std::uint32_t>(k);
      }
    } else {
      m.t0_slot.resize(n * n);
    }
  }

  // Paper Section 4.2: every robot knows P(t0) — wake all at t0 once.
  // Anonymous systems with moved-peer lists read each observer's t0 slots
  // off the order row of the very snapshot `initialize` receives.
  std::vector<std::uint32_t> t0_row;
  std::vector<SnapshotEntry> t0_entries;
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    if (moved_ == nullptr || identified_) {
      programs_[i]->initialize(make_snapshot_at(i, p0, p0, 0));
      continue;
    }
    Snapshot snap;
    t0_row.clear();  // Cold build: it fills the row in snapshot order.
    build_observation(i, p0, p0, 0, t0_entries, snap, &t0_row);
    std::uint32_t* const slots = moved_->t0_slot.data() + i * n;
    for (std::size_t k = 0; k < n; ++k) {
      slots[t0_row[k]] = static_cast<std::uint32_t>(k);
    }
    programs_[i]->initialize(snap);
  }
}

void Engine::note_change(std::uint32_t j, Time e) {
  MovedIndex& m = *moved_;
  if (m.version[j] == e + 1) return;
  if (m.log.size() == m.log.capacity()) {
    // Keep each robot's latest change only: at most n records, so the
    // reserved 2n always leave room for a whole instant's changes.
    std::erase_if(m.log, [&m](const MovedIndex::Change& c) {
      return c.version != m.version[c.robot];
    });
  }
  m.version[j] = e + 1;
  m.log.push_back(MovedIndex::Change{e + 1, j});
}

void Engine::build_moved(RobotIndex i, std::span<const geom::Vec2> stale,
                         Time stale_e, Snapshot& out) {
  MovedIndex& m = *moved_;
  const Time seen = m.seen[i];
  m.seen[i] = stale_e + 1;
  // Every robot whose version is newer than what this observer saw last:
  // its newest log record is the one carrying its version. A change after
  // `stale_e` (a delayed observer) lists it early, which the superset
  // contract allows.
  std::size_t k = m.log.size();
  while (k > 0 && m.log[k - 1].version > seen) --k;
  const double q = options_.observation_quantum;
  const Frame& f = frames_[i];
  const std::uint32_t* const slots =
      m.t0_slot.data() + (identified_ ? 0 : i * specs_.size());
  std::uint64_t* const bits = m.slot_bits.data();
  geom::Vec2* const pos = m.slot_pos.data();
  std::fill(m.slot_bits.begin(), m.slot_bits.end(), 0);
  for (; k < m.log.size(); ++k) {
    const MovedIndex::Change c = m.log[k];
    if (c.robot == i || c.version != m.version[c.robot]) continue;
    const std::uint32_t s = slots[c.robot];
    bits[s >> 6] |= std::uint64_t{1} << (s & 63);
    pos[s] = f.to_local(quantize(stale[c.robot], q));
  }
  out.moved = &m.view;
}

Snapshot Engine::make_snapshot(RobotIndex i) const {
  // Between steps an observer sees what it would have committed to during
  // the previous instant: others `observation_delay` instants behind that
  // instant, i.e. t - 1 - delay (clamped to t0). With no delay, stale and
  // current coincide.
  const Time d = options_.observation_delay;
  const Time stale_e = d == 0 ? t_ : (t_ > d ? t_ - 1 - d : 0);
  return make_snapshot_at(i, ring_[slot(t_)], ring_[slot(stale_e)], t_);
}

void Engine::teleport(RobotIndex i, const geom::Vec2& global_position) {
  std::vector<geom::Vec2>& cur = ring_[slot(t_)];
  cur.at(i) = global_position;
  // Every observation of the current epoch is still to come (the t0
  // snapshot counts as seen before any shove), so a new version lists the
  // shove to each of them.
  if (moved_ != nullptr) note_change(static_cast<std::uint32_t>(i), t_);
  if (sink_ != nullptr) {
    obs::Event e;
    e.type = obs::EventType::Teleport;
    e.t = t_;
    e.robot = static_cast<std::int64_t>(i);
    e.x = global_position.x;
    e.y = global_position.y;
    sink_->on_event(e);
  }
  if (options_.check_collisions) {
    for (std::size_t j = 0; j < cur.size(); ++j) {
      if (j != i && geom::dist(cur[i], cur[j]) <=
                        options_.collision_distance) {
        throw CollisionError("teleport collided robots " + std::to_string(i) +
                             " and " + std::to_string(j));
      }
    }
  }
}

void Engine::set_metrics(obs::MetricsRegistry* registry) {
  // Sub-microsecond steps are the common case; 16ns lower edge keeps the
  // first buckets meaningful on fast hardware.
  step_wall_ = registry == nullptr
                   ? nullptr
                   : &registry->histogram("engine.step_wall_ns", 16.0);
}

void Engine::set_profiler(obs::prof::Profiler* profiler) {
  prof_ = profiler;
  if (prof_ == nullptr) return;
  ph_step_ = prof_->phase("engine.step");
  ph_sched_ = prof_->phase("engine.sched");
  ph_observe_ = prof_->phase("engine.observe");
  ph_compute_ = prof_->phase("engine.compute");
  ph_commit_ = prof_->phase("engine.commit");
  ph_emit_ = prof_->phase("engine.emit");
}

void Engine::set_coverage(obs::cov::CovMap* map) {
  cov_ = map;
  if (cov_ == nullptr) return;
  cov_class_[0] = cov_->state("none");
  cov_class_[1] = cov_->state("one");
  cov_class_[2] = cov_->state("few");
  cov_class_[3] = cov_->state("most");
  cov_class_[4] = cov_->state("all");
  // The first instant's 2-gram starts from an explicit start state, so a
  // run's very first interleaving class is itself an edge.
  cov_prev_ = cov_->state("start");
}

std::vector<RobotIndex> Engine::initial_observation_order(
    RobotIndex i) const {
  const Frame& f = frames_.at(i);
  std::vector<RobotIndex> order(specs_.size());
  for (std::size_t j = 0; j < specs_.size(); ++j) order[j] = j;
  if (identified_) {
    std::sort(order.begin(), order.end(),
              [&](RobotIndex a, RobotIndex b) {
                return specs_[a].id.value() < specs_[b].id.value();
              });
  } else {
    std::sort(order.begin(), order.end(),
              [&](RobotIndex a, RobotIndex b) {
                return f.to_local(specs_[a].position) <
                       f.to_local(specs_[b].position);
              });
  }
  return order;
}

Snapshot Engine::make_snapshot_at(RobotIndex i,
                                  std::span<const geom::Vec2> config,
                                  std::span<const geom::Vec2> stale_config,
                                  Time t) const {
  std::vector<SnapshotEntry> entries;
  Snapshot snap;
  build_observation(i, config, stale_config, t, entries, snap);
  return snap;
}

void Engine::build_observation(RobotIndex i,
                               std::span<const geom::Vec2> config,
                               std::span<const geom::Vec2> stale_config,
                               Time t, std::vector<SnapshotEntry>& entries,
                               Snapshot& out,
                               std::vector<std::uint32_t>* order) const {
  const Frame& f = frames_.at(i);
  const double q = options_.observation_quantum;
  // Self: current and exact (odometry). Others: possibly stale (CORDA-ish
  // delay) and quantized (sensor resolution).
  const auto observed = [&](std::size_t j) {
    return f.to_local(j == i ? config[j] : quantize(stale_config[j], q));
  };
  const std::size_t n = config.size();
  out.t = t;
  // Temporal coherence (anonymous systems): between two observations of
  // one robot most robots keep their places, so the previous order is
  // nearly sorted. Transform straight into the snapshot in that order and
  // insertion-sort positions and order row together — linear when few
  // robots changed places. Without ties the sorted order is unique, so
  // this equals the cold build; with a tie (or a NaN) std::sort's order is
  // unspecified, so rebuild cold below.
  if (order != nullptr && order->size() == n) {
    std::uint32_t* const row = order->data();
    out.robots.resize(n);
    ObservedRobot* const robots = out.robots.data();
    for (std::size_t k = 0; k < n; ++k) {
      robots[k] = ObservedRobot{observed(row[k]), std::nullopt};
    }
    bool strict = true;
    for (std::size_t k = 1; k < n; ++k) {
      const geom::Vec2 p = robots[k].position;
      const std::uint32_t j = row[k];
      std::size_t m = k;
      for (; m > 0 && p < robots[m - 1].position; --m) {
        robots[m].position = robots[m - 1].position;
        row[m] = row[m - 1];
      }
      robots[m].position = p;
      row[m] = j;
      // Every shifted entry is strictly above p; the one it stopped at
      // must be strictly below, or the order is not unique.
      strict = strict && (m == 0 || robots[m - 1].position < p);
    }
    if (strict) {
      out.self = static_cast<std::size_t>(std::find(row, row + n, i) - row);
      return;
    }
  }
  // Cold build: every candidate entry, then the snapshot order.
  entries.clear();
  entries.reserve(n);
  const auto append = [&](std::size_t j) {
    // Robots out of the visibility radius are not seen at all.
    if (j != i && options_.visibility_radius > 0.0 &&
        geom::dist(stale_config[j], config[i]) > options_.visibility_radius) {
      return;
    }
    SnapshotEntry e;
    e.obs.position = observed(j);
    e.obs.id = identified_ ? specs_[j].id : std::nullopt;
    e.index = j;
    entries.push_back(e);
  };
  // Identified systems expose entries sorted by id; appending in the
  // precomputed id order (ids are unique and never change) yields exactly
  // the order the per-activation sort used to produce, without the sort.
  // Anonymous systems sort lexicographically by local position, which
  // carries no identity and genuinely depends on this instant's geometry.
  if (identified_) {
    for (const RobotIndex j : id_order_) append(j);
  } else {
    for (std::size_t j = 0; j < n; ++j) append(j);
    std::sort(entries.begin(), entries.end(),
              [](const SnapshotEntry& a, const SnapshotEntry& b) {
                return a.obs.position < b.obs.position;
              });
    // The warm path needs every robot in sight: a visibility radius
    // changes the entry count between observations, so it keeps no row.
    if (order != nullptr) {
      order->clear();
      if (options_.visibility_radius <= 0.0) {
        for (const SnapshotEntry& e : entries) {
          order->push_back(static_cast<std::uint32_t>(e.index));
        }
      }
    }
  }
  out.self = 0;
  out.robots.clear();
  out.robots.reserve(entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (entries[k].index == i) out.self = k;
    out.robots.push_back(entries[k].obs);
  }
}

void Engine::check_collisions(std::span<const geom::Vec2> after) {
  const std::size_t n = after.size();
  const double cd = options_.collision_distance;
  const auto report = [&](std::size_t i, std::size_t j) {
    if (sink_ != nullptr) {
      obs::Event e;
      e.type = obs::EventType::Collision;
      e.t = t_;
      e.robot = static_cast<std::int64_t>(i);
      e.peer = static_cast<std::int64_t>(j);
      e.x = after[i].x;
      e.y = after[i].y;
      sink_->on_event(e);
    }
    throw CollisionError("robots " + std::to_string(i) + " and " +
                         std::to_string(j) + " collided at instant " +
                         std::to_string(t_));
  };
  if (n < kGridThreshold) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (geom::dist(after[i], after[j]) <= cd) report(i, j);
      }
    }
    return;
  }
  grid_scratch_.build(after);
  const double r2 = collision_radius2(cd);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t hit = n;
    grid_scratch_.for_each_within(after[i], r2, [&](std::size_t j) {
      if (j > i && j < hit && geom::dist(after[i], after[j]) <= cd) hit = j;
    });
    // Lexicographically first pair, as the all-pairs scan reports: lowest
    // i first (outer loop), lowest j among its collisions (min above).
    if (hit < n) report(i, hit);
  }
}

void Engine::step() {
  if (step_wall_ == nullptr) {
    step_impl();
    return;
  }
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  step_impl();
  step_wall_->record(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count()));
}

void Engine::step_impl() {
  obs::prof::Scope step_scope(prof_, ph_step_);
  const std::size_t n = specs_.size();
  // Engine-owned scratch: the activation set reuses its capacity across
  // instants, so steady-state scheduling allocates nothing.
  ActivationSet& active = active_scratch_;
  {
    obs::prof::Scope s(prof_, ph_sched_);
    scheduler_->activate_into(t_, n, active);
    assert(std::any_of(active.begin(), active.end(),
                       [](bool b) { return b; }) &&
           "scheduler must activate at least one robot");
    // Fault masking happens on the scheduler's *output*, so a recorded
    // schedule stays the fault-free one and a replay under the same fault
    // plan re-masks identically.
    if (interceptor_ != nullptr) interceptor_->on_activation(t_, active);
  }

  if (cov_ != nullptr) {
    // Interleaving-class 2-gram over the post-mask activation set: which
    // concurrency shapes (and which shape-to-shape transitions) the
    // schedule actually produced.
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i) c += active[i] ? 1u : 0u;
    const obs::cov::StateId cur =
        c == 0   ? cov_class_[0]
        : c == n ? cov_class_[4]
        : c == 1 ? cov_class_[1]
        : 2 * c >= n ? cov_class_[3]
                     : cov_class_[2];
    cov_->hit(obs::cov::Domain::sched, cov_prev_, cur);
    cov_prev_ = cur;
  }

  // Epoch-ring views: `before` is this instant's configuration in place
  // (no copy), `stale` the delayed-observation epoch, `after` the slot
  // being recycled for the next instant. The one configuration copy a
  // fault-free instant performs is seeding `after` from `before`; slot
  // capacity is reused, so steady state allocates nothing.
  const Time d = options_.observation_delay;
  std::vector<geom::Vec2>& before_v = ring_[slot(t_)];
  const std::span<const geom::Vec2> before{before_v};
  const Time stale_e = t_ >= d ? t_ - d : 0;
  const std::span<const geom::Vec2> stale{ring_[slot(stale_e)]};
  std::vector<geom::Vec2>& after = ring_[slot(t_ + 1)];
  after.assign(before_v.begin(), before_v.end());
  // Phase 1: all active robots observe `before` and commit to destinations;
  // phase 2: all moves are applied. No robot sees a same-instant move.
  for (std::size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    {
      obs::prof::Scope s(prof_, ph_observe_);
      build_observation(i, before, stale, t_, entry_scratch_, snap_scratch_,
                        identified_ ? nullptr : &prev_order_[i]);
      if (moved_ != nullptr) build_moved(i, stale, stale_e, snap_scratch_);
    }
    geom::Vec2 local_target;
    {
      obs::prof::Scope s(prof_, ph_compute_);
      local_target = programs_[i]->on_activate(snap_scratch_);
    }
    const geom::Vec2 target = frames_[i].to_global(local_target);
    const geom::Vec2 d_move = target - before[i];
    const double len = d_move.norm();
    after[i] = len <= sigmas_[i]
                   ? target
                   : before[i] + d_move * (sigmas_[i] / len);
  }

  {
  obs::prof::Scope commit_scope(prof_, ph_commit_);
  if (options_.check_collisions) check_collisions(after);

  if (interceptor_ != nullptr) {
    pre_scratch_.assign(after.begin(), after.end());
    interceptor_->on_positions(t_, std::span<geom::Vec2>{after});
    for (std::size_t i = 0; i < n; ++i) {
      if (after[i] == pre_scratch_[i]) continue;
      // Transient perturbation: surface it like the teleport fault so the
      // watchdog re-anchors granular containment for the shoved robot.
      if (sink_ != nullptr) {
        obs::Event e;
        e.type = obs::EventType::Teleport;
        e.t = t_;
        e.robot = static_cast<std::int64_t>(i);
        e.x = after[i].x;
        e.y = after[i].y;
        sink_->on_event(e);
      }
      if (options_.check_collisions) {
        for (std::size_t j = 0; j < n; ++j) {
          if (j != i && geom::dist(after[i], after[j]) <=
                            options_.collision_distance) {
            // Publish the collided configuration for post-mortems without
            // advancing time (the legacy `positions_ = after`).
            before_v = after;
            throw CollisionError("perturbation collided robots " +
                                 std::to_string(i) + " and " +
                                 std::to_string(j) + " at instant " +
                                 std::to_string(t_));
          }
        }
      }
    }
  }
  // Version every committed change, moves and displacements alike.
  // Bitwise: equal bits observe identically, so an unversioned robot is
  // observed exactly as before (-0.0 vs +0.0 or a new NaN payload counts).
  if (moved_ != nullptr) {
    for (std::size_t j = 0; j < n; ++j) {
      if (std::bit_cast<std::uint64_t>(after[j].x) !=
              std::bit_cast<std::uint64_t>(before[j].x) ||
          std::bit_cast<std::uint64_t>(after[j].y) !=
              std::bit_cast<std::uint64_t>(before[j].y)) {
        note_change(static_cast<std::uint32_t>(j), t_ + 1);
      }
    }
  }
  }  // commit_scope
  {
    obs::prof::Scope s(prof_, ph_emit_);
    trace_.record_step(active, before, after, sink_);
  }
  // Publishing the step is just the epoch increment: `positions()` now
  // views the slot the moves were written into.
  ++t_;
}

void Engine::run(Time instants) {
  for (Time k = 0; k < instants; ++k) step();
}

bool Engine::run_until(const std::function<bool()>& done, Time max_instants) {
  for (Time k = 0; k < max_instants; ++k) {
    if (done()) return true;
    step();
  }
  return done();
}

}  // namespace stig::sim
