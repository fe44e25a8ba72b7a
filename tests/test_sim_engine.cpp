// Engine tests: the SSM step semantics (two-phase observation, sigma clamp),
// snapshot construction for identified/anonymous systems, collision
// detection, trace counters, and construction validation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "geom/angle.hpp"
#include "sim/engine.hpp"
#include "sim/observation.hpp"
#include "sim/rng.hpp"

namespace stig::sim {
namespace {

using geom::Vec2;

/// A robot that walks a fixed local direction every activation.
class Walker final : public Robot {
 public:
  explicit Walker(Vec2 dir) : dir_(dir) {}
  void initialize(const Snapshot& snap) override { t0_ = snap; }
  Vec2 on_activate(const Snapshot& snap) override {
    last_ = snap;
    ++activations_;
    return snap.self_robot().position + dir_;
  }
  Snapshot t0_;
  Snapshot last_;
  Vec2 dir_;
  int activations_ = 0;
};

/// A robot that never moves.
class Sitter final : public Robot {
 public:
  void initialize(const Snapshot&) override {}
  Vec2 on_activate(const Snapshot& snap) override {
    return snap.self_robot().position;
  }
};

std::vector<std::unique_ptr<Robot>> walkers(std::initializer_list<Vec2> dirs) {
  std::vector<std::unique_ptr<Robot>> v;
  for (const Vec2& d : dirs) v.push_back(std::make_unique<Walker>(d));
  return v;
}

TEST(Engine, InitializeGivesEveryRobotT0) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}},
                               {.position = Vec2{5, 0}}};
  auto programs = walkers({Vec2{0, 0.1}, Vec2{0, 0.1}});
  auto* w0 = static_cast<Walker*>(programs[0].get());
  auto* w1 = static_cast<Walker*>(programs[1].get());
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>());
  EXPECT_EQ(w0->t0_.robots.size(), 2u);
  EXPECT_EQ(w1->t0_.robots.size(), 2u);
  // Anchored local frames: each sees itself at the origin at t0.
  EXPECT_TRUE(nearly_equal(w0->t0_.self_robot().position, Vec2{0, 0}));
  EXPECT_TRUE(nearly_equal(w1->t0_.self_robot().position, Vec2{0, 0}));
  // And the other 5 away.
  EXPECT_NEAR(geom::dist(w0->t0_.robots[0].position,
                         w0->t0_.robots[1].position),
              5.0, 1e-9);
}

TEST(Engine, SigmaClampsTravelPreservingDirection) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 0.5},
                               {.position = Vec2{5, 0}, .sigma = 10.0}};
  Engine e(specs, walkers({Vec2{3, 4}, Vec2{3, 4}}),
           std::make_unique<SynchronousScheduler>());
  e.step();
  // Robot 0 wanted |(3,4)| = 5 but travels 0.5 in that direction.
  EXPECT_TRUE(nearly_equal(e.positions()[0], Vec2{0.3, 0.4}, 1e-9));
  // Robot 1 is unconstrained.
  EXPECT_TRUE(nearly_equal(e.positions()[1], Vec2{8, 4}, 1e-9));
}

TEST(Engine, TwoPhaseObservation) {
  // Both robots walk toward each other's *observed* position; with the
  // two-phase step they observe pre-move positions, so after one step they
  // meet exactly in the middle if sigma allows... use sigma to stop short
  // and verify the observation was the pre-move configuration.
  class Chaser final : public Robot {
   public:
    void initialize(const Snapshot&) override {}
    Vec2 on_activate(const Snapshot& snap) override {
      const Vec2 other = snap.robots[1 - snap.self].position;
      const Vec2 self = snap.self_robot().position;
      observed_gaps_.push_back(geom::dist(other, self));
      return self + (other - self) * 0.1;
    }
    std::vector<double> observed_gaps_;
  };
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 100},
                               {.position = Vec2{10, 0}, .sigma = 100}};
  std::vector<std::unique_ptr<Robot>> programs;
  programs.push_back(std::make_unique<Chaser>());
  programs.push_back(std::make_unique<Chaser>());
  auto* c0 = static_cast<Chaser*>(programs[0].get());
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>());
  e.step();
  e.step();
  // First observation: the peer at distance 10 (pre-move). Second: both
  // moved 1 toward each other -> distance 8. If robots saw same-instant
  // moves, the second gap would be 9 instead.
  ASSERT_EQ(c0->observed_gaps_.size(), 2u);
  EXPECT_NEAR(c0->observed_gaps_[0], 10.0, 1e-9);
  EXPECT_NEAR(c0->observed_gaps_[1], 8.0, 1e-9);
}

TEST(Engine, InactiveRobotsDoNotMoveOrObserve) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}},
                               {.position = Vec2{5, 0}}};
  auto programs = walkers({Vec2{0.1, 0}, Vec2{0.1, 0}});
  auto* w1 = static_cast<Walker*>(programs[1].get());
  // Centralized: robot 0 at t0, robot 1 at t1, ...
  Engine e(specs, std::move(programs),
           std::make_unique<CentralizedScheduler>());
  e.step();
  EXPECT_EQ(w1->activations_, 0);
  EXPECT_TRUE(nearly_equal(e.positions()[1], Vec2{5, 0}));
  e.step();
  EXPECT_EQ(w1->activations_, 1);
}

TEST(Engine, SnapshotAnonymousSortedAndUnidentified) {
  std::vector<RobotSpec> specs{{.position = Vec2{3, 0}},
                               {.position = Vec2{0, 0}},
                               {.position = Vec2{-4, 2}}};
  Engine e(specs, walkers({Vec2{0, 0}, Vec2{0, 0}, Vec2{0, 0}}),
           std::make_unique<SynchronousScheduler>());
  EXPECT_FALSE(e.identified());
  const Snapshot s = e.make_snapshot(1);
  ASSERT_EQ(s.robots.size(), 3u);
  for (std::size_t i = 0; i + 1 < s.robots.size(); ++i) {
    EXPECT_LT(s.robots[i].position, s.robots[i + 1].position);
    EXPECT_FALSE(s.robots[i].id.has_value());
  }
  EXPECT_TRUE(nearly_equal(s.robots[s.self].position, Vec2{0, 0}));
}

TEST(Engine, SnapshotIdentifiedSortedById) {
  std::vector<RobotSpec> specs{{.position = Vec2{3, 0}, .id = 30},
                               {.position = Vec2{0, 0}, .id = 10},
                               {.position = Vec2{-4, 2}, .id = 20}};
  Engine e(specs, walkers({Vec2{0, 0}, Vec2{0, 0}, Vec2{0, 0}}),
           std::make_unique<SynchronousScheduler>());
  EXPECT_TRUE(e.identified());
  const Snapshot s = e.make_snapshot(0);
  ASSERT_EQ(s.robots.size(), 3u);
  EXPECT_EQ(s.robots[0].id, 10u);
  EXPECT_EQ(s.robots[1].id, 20u);
  EXPECT_EQ(s.robots[2].id, 30u);
  EXPECT_EQ(s.self, 2u);  // id 30.
}

TEST(Engine, InitialObservationOrderMatchesSnapshot) {
  std::vector<RobotSpec> specs{
      {.position = Vec2{3, 0}, .frame_rotation = 1.0, .frame_unit = 2.0},
      {.position = Vec2{0, 0}, .frame_rotation = 2.0},
      {.position = Vec2{-4, 2}, .frame_rotation = 0.5}};
  Engine e(specs, walkers({Vec2{0, 0}, Vec2{0, 0}, Vec2{0, 0}}),
           std::make_unique<SynchronousScheduler>());
  for (RobotIndex i = 0; i < 3; ++i) {
    const auto order = e.initial_observation_order(i);
    const Snapshot s = e.make_snapshot(i);  // Still at t0 positions.
    for (std::size_t k = 0; k < order.size(); ++k) {
      EXPECT_TRUE(nearly_equal(
          s.robots[k].position,
          e.frame(i).to_local(specs[order[k]].position), 1e-9))
          << "observer " << i << " slot " << k;
    }
  }
}

TEST(Engine, CollisionDetected) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{2, 0}, .sigma = 10}};
  // Robot 0 walks exactly onto robot 1's position; robot 1 stays.
  std::vector<std::unique_ptr<Robot>> programs;
  programs.push_back(std::make_unique<Walker>(Vec2{2, 0}));
  programs.push_back(std::make_unique<Sitter>());
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>());
  EXPECT_THROW(e.step(), CollisionError);
}

TEST(Engine, RejectsCoincidentStart) {
  std::vector<RobotSpec> specs{{.position = Vec2{1, 1}},
                               {.position = Vec2{1, 1}}};
  EXPECT_THROW(Engine(specs, walkers({Vec2{0, 0}, Vec2{0, 0}}),
                      std::make_unique<SynchronousScheduler>()),
               std::invalid_argument);
}

TEST(Engine, RejectsMixedIdentification) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .id = 1},
                               {.position = Vec2{5, 0}}};
  EXPECT_THROW(Engine(specs, walkers({Vec2{0, 0}, Vec2{0, 0}}),
                      std::make_unique<SynchronousScheduler>()),
               std::invalid_argument);
}

TEST(Engine, RejectsBadSigmaAndUnit) {
  std::vector<RobotSpec> bad_sigma{{.position = Vec2{0, 0}, .sigma = 0.0},
                                   {.position = Vec2{5, 0}}};
  EXPECT_THROW(Engine(bad_sigma, walkers({Vec2{0, 0}, Vec2{0, 0}}),
                      std::make_unique<SynchronousScheduler>()),
               std::invalid_argument);
  std::vector<RobotSpec> bad_unit{
      {.position = Vec2{0, 0}, .frame_unit = -1.0},
      {.position = Vec2{5, 0}}};
  EXPECT_THROW(Engine(bad_unit, walkers({Vec2{0, 0}, Vec2{0, 0}}),
                      std::make_unique<SynchronousScheduler>()),
               std::invalid_argument);
}

TEST(Engine, TraceCountsMovesAndDistance) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{5, 0}, .sigma = 10}};
  std::vector<std::unique_ptr<Robot>> programs;
  programs.push_back(std::make_unique<Walker>(Vec2{0, 1}));
  programs.push_back(std::make_unique<Sitter>());
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>());
  e.run(10);
  EXPECT_EQ(e.trace().instants(), 10u);
  EXPECT_EQ(e.trace().stats(0).activations, 10u);
  EXPECT_EQ(e.trace().stats(0).moves, 10u);
  EXPECT_NEAR(e.trace().stats(0).distance, 10.0, 1e-9);
  EXPECT_EQ(e.trace().stats(1).moves, 0u);
  EXPECT_GT(e.trace().min_separation(), 4.9);
}

TEST(Engine, RunUntilPredicate) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{5, 0}, .sigma = 10}};
  Engine e(specs, walkers({Vec2{0, 1}, Vec2{0, 1}}),
           std::make_unique<SynchronousScheduler>());
  EXPECT_TRUE(e.run_until([&] { return e.now() >= 7; }, 100));
  EXPECT_EQ(e.now(), 7u);
  EXPECT_FALSE(e.run_until([&] { return false; }, 5));
}

TEST(Engine, EpochRingServesLiveHistory) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{5, 0}, .sigma = 10}};
  std::vector<std::unique_ptr<Robot>> programs;
  programs.push_back(std::make_unique<Walker>(Vec2{0, 1}));
  programs.push_back(std::make_unique<Sitter>());
  EngineOptions opt;
  opt.observation_delay = 1;  // Ring capacity delay + 2 = 3.
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>(), opt);

  EXPECT_EQ(e.config_epoch(), 0u);
  EXPECT_TRUE(e.epoch_live(0));
  EXPECT_FALSE(e.epoch_live(1));  // The future is not live.

  // Record every configuration as the run publishes it, then check the
  // ring serves exactly the live window, bit-for-bit.
  std::vector<std::vector<Vec2>> history;
  history.emplace_back(e.positions().begin(), e.positions().end());
  for (Time s = 1; s <= 5; ++s) {
    e.step();
    history.emplace_back(e.positions().begin(), e.positions().end());
    EXPECT_EQ(e.config_epoch(), s);
    for (Time ep = 0; ep <= s; ++ep) {
      if (s - ep < 3) {
        ASSERT_TRUE(e.epoch_live(ep)) << "epoch " << ep << " at t=" << s;
        const auto cfg = e.config(ep);
        const std::vector<Vec2>& want = history[ep];
        ASSERT_EQ(cfg.size(), want.size());
        for (std::size_t i = 0; i < cfg.size(); ++i) {
          EXPECT_EQ(cfg[i].x, want[i].x) << "epoch " << ep << " robot " << i;
          EXPECT_EQ(cfg[i].y, want[i].y) << "epoch " << ep << " robot " << i;
        }
      } else {
        EXPECT_FALSE(e.epoch_live(ep)) << "epoch " << ep << " at t=" << s;
        EXPECT_THROW((void)e.config(ep), std::out_of_range);
      }
    }
  }
}

TEST(Engine, PositionsSpanAliasesCurrentEpoch) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{5, 0}, .sigma = 10}};
  Engine e(specs, walkers({Vec2{1, 0}, Vec2{1, 0}}),
           std::make_unique<SynchronousScheduler>());
  // `positions()` is a view of the current epoch's slot, not a copy.
  EXPECT_EQ(e.positions().data(), e.config(e.config_epoch()).data());
  e.step();
  EXPECT_EQ(e.positions().data(), e.config(e.config_epoch()).data());
  // Stepping publishes a new epoch; the previous one stays readable and
  // unchanged while live (delay 0 -> capacity 2).
  const std::vector<Vec2> before(e.positions().begin(), e.positions().end());
  const Time prev = e.config_epoch();
  e.step();
  ASSERT_TRUE(e.epoch_live(prev));
  const auto old_cfg = e.config(prev);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(old_cfg[i].x, before[i].x);
    EXPECT_EQ(old_cfg[i].y, before[i].y);
  }
  EXPECT_FALSE(e.epoch_live(prev - 1));
}

TEST(Engine, WarmObservationsMatchFreshEngine) {
  // The step path rebuilds each observer's anonymous snapshot in place
  // from its previous order; every snapshot it hands out must equal the
  // cold build, `make_snapshot_at`, of the same configurations. Cases:
  // random frames and random walks (most robots idle, so orders mostly
  // persist); sensor quantization (ties between merged robots);
  // observation delay (others stale, self current); a visibility radius
  // (entry counts that change between activations); a 200-robot swarm
  // whose movers jump several lexicographic slots; and robots parked on
  // the quantization grid, so an observer's exact self ties with a
  // neighbour snapped onto it — only the tie fallback gets `self` right.
  class Wanderer final : public Robot {
   public:
    Wanderer(std::uint64_t seed, double stay, double step,
             std::vector<Snapshot>* seen, std::size_t index)
        : rng_(seed), stay_(stay), step_(step), seen_(seen), index_(index) {}
    void initialize(const Snapshot&) override {}
    Vec2 on_activate(const Snapshot& snap) override {
      (*seen_)[index_] = snap;
      const Vec2 self = snap.self_robot().position;
      if (rng_.flip(stay_)) return self;
      return self + Vec2{rng_.uniform(-step_, step_),
                         rng_.uniform(-step_, step_)};
    }

   private:
    Rng rng_;
    double stay_;
    double step_;
    std::vector<Snapshot>* seen_;
    std::size_t index_;
  };
  struct Case {
    double quantum;
    double visibility;
    Time delay;
    std::size_t n;
    double step;  ///< Largest move per axis, in local units.
    bool parked;  ///< Identity frames; even robots parked on the grid.
  };
  for (const Case c :
       {Case{0.0, 0.0, 0, 24, 0.4, false}, Case{1.0, 0.0, 0, 24, 0.4, false},
        Case{0.0, 2.5, 0, 24, 0.4, false}, Case{1.0, 2.5, 0, 24, 0.4, false},
        Case{0.0, 0.0, 2, 24, 0.4, false}, Case{1.0, 0.0, 2, 24, 0.4, false},
        Case{0.0, 0.0, 0, 200, 4.0, false},
        Case{1.0, 0.0, 0, 24, 0.3, true}}) {
    const std::string where = "q=" + std::to_string(c.quantum) +
                              " vis=" + std::to_string(c.visibility) +
                              " delay=" + std::to_string(c.delay) +
                              " n=" + std::to_string(c.n) +
                              (c.parked ? " parked" : "");
    const std::size_t n = c.n;
    const std::size_t cols = c.n > 24 ? 20 : 6;
    Rng rng(77);
    std::vector<RobotSpec> specs;
    for (std::size_t i = 0; i < n; ++i) {
      RobotSpec s;
      s.sigma = 2.0 * c.step;
      if (c.parked) {
        // Pairs on a spacing-2 grid: the even robot exactly on a grid
        // point, the odd one in that point's quantization cell.
        const std::size_t m = i / 2;
        s.position = Vec2{static_cast<double>(m % cols) * 2.0,
                          static_cast<double>(m / cols) * 2.0};
        if (i % 2 == 1) {
          s.position += Vec2{rng.uniform(-0.45, 0.45),
                             rng.uniform(-0.45, 0.45)};
        }
      } else {
        // Unit spacing against a unit quantum: neighbours often snap to
        // one grid point, so observations hold ties.
        s.position = Vec2{static_cast<double>(i % cols) + rng.uniform(0, 0.5),
                          static_cast<double>(i / cols) + rng.uniform(0, 0.5)};
        s.frame_rotation = rng.uniform(0.0, geom::kTwoPi);
        s.frame_unit = rng.uniform(0.5, 2.0);
        s.frame_mirrored = rng.flip(0.5);
      }
      specs.push_back(s);
    }
    EngineOptions opt;
    opt.observation_quantum = c.quantum;
    opt.visibility_radius = c.visibility;
    opt.observation_delay = c.delay;
    opt.check_collisions = false;  // Random walks may pass arbitrarily close.
    std::vector<Snapshot> seen(n);
    std::vector<std::unique_ptr<Robot>> programs;
    for (std::size_t i = 0; i < n; ++i) {
      // Parked robots never move: in an identity frame their target is
      // their anchor, exactly.
      const double stay = c.parked && i % 2 == 0 ? 1.0 : 0.7;
      programs.push_back(
          std::make_unique<Wanderer>(100 + i, stay, c.step, &seen, i));
    }
    Engine e(specs, std::move(programs),
             std::make_unique<BernoulliScheduler>(0.5, 5), opt);
    std::vector<std::vector<Vec2>> history;  // Configuration per instant.
    std::size_t ties = 0;
    std::size_t self_ties = 0;
    std::size_t partial = 0;
    std::size_t stale_views = 0;
    const Time instants = n > 24 ? 40 : 150;
    for (Time t = 0; t < instants; ++t) {
      for (Snapshot& s : seen) s.robots.clear();
      history.emplace_back(e.positions().begin(), e.positions().end());
      e.step();
      const std::vector<Vec2>& config = history[t];
      const std::vector<Vec2>& stale = history[t >= c.delay ? t - c.delay : 0];
      if (stale != config) ++stale_views;
      for (std::size_t i = 0; i < n; ++i) {
        if (seen[i].robots.empty()) continue;  // Not active this instant.
        const Snapshot want = e.make_snapshot_at(i, config, stale, t);
        const Snapshot& got = seen[i];
        ASSERT_EQ(got.t, want.t) << where << " t=" << t << " robot " << i;
        ASSERT_EQ(got.self, want.self) << where << " t=" << t << " robot " << i;
        ASSERT_EQ(got.robots.size(), want.robots.size())
            << where << " t=" << t << " robot " << i;
        for (std::size_t k = 0; k < want.robots.size(); ++k) {
          ASSERT_EQ(got.robots[k].position, want.robots[k].position)
              << where << " t=" << t << " robot " << i << " slot " << k;
          ASSERT_FALSE(got.robots[k].id.has_value())
              << where << " t=" << t << " robot " << i << " slot " << k;
          if (k > 0 && want.robots[k].position ==
                           want.robots[k - 1].position) {
            ++ties;
            if (k == want.self || k - 1 == want.self) ++self_ties;
          }
        }
        if (want.robots.size() < n) ++partial;
      }
    }
    // The fallbacks and stale views under test were actually reached.
    if (c.quantum > 0.0) {
      EXPECT_GT(ties, 0u) << where;
    }
    if (c.parked) {
      EXPECT_GT(self_ties, 0u) << where;
    }
    if (c.visibility > 0.0) {
      EXPECT_GT(partial, 0u) << where;
    }
    if (c.delay > 0) {
      EXPECT_GT(stale_views, 0u) << where;
    }
  }
}

TEST(ChangeTracker, CountsDistinctObservations) {
  ChangeTracker t(2, 1e-9);
  t.observe(0, Vec2{0, 0});
  EXPECT_EQ(t.changes(0), 0u);  // First observation is a baseline.
  t.observe(0, Vec2{0, 0});
  EXPECT_EQ(t.changes(0), 0u);
  t.observe(0, Vec2{1, 0});
  EXPECT_EQ(t.changes(0), 1u);
  t.observe(0, Vec2{1, 0});
  t.observe(0, Vec2{2, 0});
  EXPECT_EQ(t.changes(0), 2u);
  EXPECT_EQ(t.changes(1), 0u);
  EXPECT_TRUE(t.last(0).has_value());
  EXPECT_FALSE(t.last(1).has_value());
}

TEST(ChangeTracker, ToleranceSuppressesJitter) {
  ChangeTracker t(1, 0.1);
  t.observe(0, Vec2{0, 0});
  t.observe(0, Vec2{0.05, 0});
  EXPECT_EQ(t.changes(0), 0u);
  t.observe(0, Vec2{0.2, 0});
  EXPECT_EQ(t.changes(0), 1u);
}

TEST(AckBarrier, RequiresTwoChangesFromEveryPeer) {
  ChangeTracker t(3, 1e-9);
  for (std::size_t p = 0; p < 3; ++p) t.observe(p, Vec2{0, 0});
  AckBarrier b;
  b.arm(t, /*self_slot=*/1);  // Track peers 0 and 2.
  EXPECT_FALSE(b.satisfied(t));
  t.observe(0, Vec2{1, 0});
  t.observe(0, Vec2{2, 0});
  EXPECT_FALSE(b.satisfied(t));  // Peer 2 has not changed.
  t.observe(2, Vec2{1, 0});
  EXPECT_FALSE(b.satisfied(t));  // Only once.
  t.observe(2, Vec2{2, 0});
  EXPECT_TRUE(b.satisfied(t));
  // Self slot 1 never mattered.
  EXPECT_EQ(t.changes(1), 0u);
}

TEST(AckBarrier, RearmResetsBaselines) {
  ChangeTracker t(1, 1e-9);
  t.observe(0, Vec2{0, 0});
  t.observe(0, Vec2{1, 0});
  t.observe(0, Vec2{2, 0});
  AckBarrier b;
  b.arm(t, 1);
  EXPECT_FALSE(b.satisfied(t));  // Changes before arming do not count.
  t.observe(0, Vec2{3, 0});
  t.observe(0, Vec2{4, 0});
  EXPECT_TRUE(b.satisfied(t));
}

}  // namespace
}  // namespace stig::sim
