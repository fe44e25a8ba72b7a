// SlicedCore unit tests: granular construction from a snapshot, rank
// tables, association of observed configurations, signal classification.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "geom/angle.hpp"
#include "proto/slices.hpp"
#include "sim/engine.hpp"
#include "sim/placement.hpp"

namespace stig::proto {
namespace {

using geom::Vec2;

/// Builds a t0-style snapshot directly (identity frame, anonymous).
sim::Snapshot snapshot_of(std::vector<Vec2> pts, std::size_t self,
                          bool with_ids = false) {
  sim::Snapshot s;
  s.t = 0;
  s.self = self;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    sim::ObservedRobot r;
    r.position = pts[i];
    if (with_ids) r.id = static_cast<sim::VisibleId>(10 * (i + 1));
    s.robots.push_back(r);
  }
  return s;
}

TEST(SlicedCore, GranularRadiiAreHalfNearestNeighbor) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{4, 0}, Vec2{0, 3}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::lexicographic, 3);
  EXPECT_NEAR(core.radius(0), 1.5, 1e-9);  // Nearest to (0,0) is (0,3).
  EXPECT_NEAR(core.radius(1), 2.0, 1e-9);  // Nearest to (4,0) is (0,0).
  EXPECT_NEAR(core.radius(2), 1.5, 1e-9);
  EXPECT_EQ(core.robot_count(), 3u);
  EXPECT_EQ(core.self_index(), 0u);
  EXPECT_EQ(core.diameter_count(), 3u);
}

TEST(SlicedCore, LexicographicRanksSharedByAll) {
  const std::vector<Vec2> pts{Vec2{5, 0}, Vec2{-1, 2}, Vec2{3, -4}};
  SlicedCore core(snapshot_of(pts, 1), NamingMode::lexicographic, 3);
  // Sorted lex: (-1,2) < (3,-4) < (5,0).
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(core.rank(i, 1), 0u);
    EXPECT_EQ(core.rank(i, 2), 1u);
    EXPECT_EQ(core.rank(i, 0), 2u);
  }
  EXPECT_EQ(core.robot_with_rank(0, 0), 1u);
  EXPECT_EQ(core.robot_with_rank(0, 2), 0u);
}

TEST(SlicedCore, IdRanksRequireIds) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{4, 0}};
  EXPECT_THROW(SlicedCore(snapshot_of(pts, 0), NamingMode::by_ids, 2),
               std::invalid_argument);
  SlicedCore core(snapshot_of(pts, 0, /*with_ids=*/true),
                  NamingMode::by_ids, 2);
  EXPECT_EQ(core.rank(0, 0), 0u);  // id 10 < id 20.
  EXPECT_EQ(core.rank(0, 1), 1u);
}

TEST(SlicedCore, RelativeNamingDiffersPerRobot) {
  // An asymmetric configuration: relative rank tables are per-robot.
  const std::vector<Vec2> pts{Vec2{5, 0}, Vec2{-5, 0}, Vec2{0, 4},
                              Vec2{1, 1}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::relative, 5);
  // Each row is a permutation and all rows are computable by anyone.
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<bool> seen(4, false);
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t r = core.rank(i, j);
      ASSERT_LT(r, 4u);
      EXPECT_FALSE(seen[r]);
      seen[r] = true;
      EXPECT_EQ(core.robot_with_rank(i, r), j);
    }
  }
}

TEST(SlicedCore, AssociateRecoverPositionsUnderDisplacement) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{6, 0}, Vec2{0, 8}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::lexicographic, 3);
  // Robots displaced within their granulars; snapshot arrives re-sorted
  // (anonymous ordering is by position).
  std::vector<Vec2> moved{Vec2{0.5, 0.3}, Vec2{5.2, -0.4}, Vec2{-0.7, 7.6}};
  sim::Snapshot snap = snapshot_of(moved, 0);
  std::sort(snap.robots.begin(), snap.robots.end(),
            [](const auto& a, const auto& b) {
              return a.position < b.position;
            });
  const auto pos = core.associate(snap);
  EXPECT_TRUE(geom::nearly_equal(pos[0], moved[0]));
  EXPECT_TRUE(geom::nearly_equal(pos[1], moved[1]));
  EXPECT_TRUE(geom::nearly_equal(pos[2], moved[2]));
}

TEST(SlicedCore, ClassifyRoundTripsOwnSignals) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{6, 0}, Vec2{0, 8},
                              Vec2{-7, -2}};
  for (std::size_t self = 0; self < pts.size(); ++self) {
    SlicedCore core(snapshot_of(pts, self), NamingMode::relative, 5);
    for (std::size_t d = 0; d < 5; ++d) {
      for (const auto side :
           {geom::DiameterSide::positive, geom::DiameterSide::negative}) {
        const Signal s{d, side};
        const Vec2 p = core.signal_point(s, core.radius(self) * 0.4);
        const auto fix = core.classify(self, p);
        ASSERT_TRUE(fix.has_value());
        EXPECT_EQ(*fix, s) << "self=" << self << " d=" << d;
      }
    }
    // At (or indistinguishably near) the center: no signal.
    EXPECT_FALSE(core.classify(self, core.center(self)).has_value());
  }
}

TEST(SlicedCore, ClassifyUsesPerRobotReference) {
  // With relative naming each robot's diameter 0 points along its own
  // horizon line, so the same global displacement classifies differently
  // per sender.
  const std::vector<Vec2> pts{Vec2{5, 0}, Vec2{-5, 0}, Vec2{0, 4}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::relative, 4);
  // Robot 0's horizon is +x, robot 1's is -x.
  const auto fix0 = core.classify(0, pts[0] + Vec2{0.5, 0});
  const auto fix1 = core.classify(1, pts[1] + Vec2{0.5, 0});
  ASSERT_TRUE(fix0 && fix1);
  EXPECT_EQ(fix0->diameter, 0u);
  EXPECT_EQ(fix0->side, geom::DiameterSide::positive);
  EXPECT_EQ(fix1->diameter, 0u);
  EXPECT_EQ(fix1->side, geom::DiameterSide::negative);
}

TEST(SlicedCore, RejectsOffAxisNoise) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{6, 0}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::lexicographic, 2);
  // Halfway between two diameters (45 degrees off with 2 diameters means
  // exactly on the boundary of the slices) -> angular error near the
  // maximum, above the quarter-slice acceptance threshold.
  const Vec2 diag =
      (core.granular(0).direction(0, geom::DiameterSide::positive) +
       core.granular(0).direction(1, geom::DiameterSide::positive))
          .normalized();
  const auto fix = core.classify(0, core.center(0) + diag * 1.0);
  EXPECT_FALSE(fix.has_value());
}

TEST(SlicedCore, HintedAssociationMatchesColdCore) {
  // One core associates a long run of snapshots, so its per-slot hints
  // carry over from call to call; every answer must equal a freshly built
  // core's. Sizes straddle the brute/grid switch at 64. Each robot either
  // sits at its center, signals (well inside the hint radius) or strays
  // past 0.9 R (hint rejected, full query taken), and the snapshot slots
  // arrive sorted, slightly shuffled or fully shuffled.
  for (const std::size_t n : {8u, 63u, 64u, 200u}) {
    sim::Rng rng(1000 + n);
    const std::vector<Vec2> t0 = sim::jittered_grid(rng, n, 3.0);
    SlicedCore hinted(snapshot_of(t0, 0), NamingMode::lexicographic, 4);
    for (int call = 0; call < 40; ++call) {
      std::vector<Vec2> now(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double r = hinted.radius(i);
        const double u = rng.uniform(0.0, 1.0);
        const double dist = u < 0.4   ? 0.0
                            : u < 0.8 ? rng.uniform(0.01, 0.45) * r
                                      : rng.uniform(0.9, 0.99) * r;
        const double a = rng.uniform(0.0, geom::kTwoPi);
        now[i] = t0[i] + Vec2{std::cos(a), std::sin(a)} * dist;
      }
      sim::Snapshot snap = snapshot_of(now, 0);
      std::sort(snap.robots.begin(), snap.robots.end(),
                [](const auto& a, const auto& b) {
                  return a.position < b.position;
                });
      const int shape = call % 3;
      if (shape == 1) {
        for (int s = 0; s < 4; ++s) {
          const std::size_t k = rng.uniform_int(0, n - 2);
          std::swap(snap.robots[k], snap.robots[k + 1]);
        }
      } else if (shape == 2) {
        std::shuffle(snap.robots.begin(), snap.robots.end(), rng.engine());
      }
      const std::vector<Vec2> got = hinted.associate(snap);
      const std::vector<Vec2> want =
          SlicedCore(snapshot_of(t0, 0), NamingMode::lexicographic, 4)
              .associate(snap);
      ASSERT_EQ(got.size(), n);
      ASSERT_EQ(want.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "n=" << n << " call=" << call
                                   << " robot=" << i;
        ASSERT_EQ(got[i], now[i]) << "n=" << n << " call=" << call
                                  << " robot=" << i;
      }
    }
  }
}


TEST(SlicedCore, AtRestRejectionMatchesGranularClassify) {
  // classify answers robots deep inside the at-rest bound from a squared
  // distance. Its answer must equal the exact decision everywhere:
  // Granular::classify against kCenterFraction·R, then the quarter-slice
  // rule. Probes: the center, random off-center points, and lengths
  // (1 ± eps)·kCenterFraction·R straddling the bound — along a
  // half-diameter (where the exact answer is a signal) and at a random
  // angle — for diameter counts n, n+1 and k+1, in similarity frames with
  // units from 1e-6 to 1e6.
  const auto exact = [](const geom::Granular& g,
                        const Vec2& p) -> std::optional<Signal> {
    const auto fix = g.classify(p, SlicedCore::kCenterFraction * g.radius());
    if (!fix || fix->angular_error > g.slice_width() / 4.0) {
      return std::nullopt;
    }
    return Signal{fix->diameter, fix->side};
  };
  const std::size_t n = 12;
  const std::size_t k = 3;
  sim::Rng rng(4242);
  std::size_t near_rest = 0;
  std::size_t near_signal = 0;
  for (const double unit : {1e-6, 1e-3, 1.0, 1e3, 1e6}) {
    const double rot = rng.uniform(0.0, geom::kTwoPi);
    const bool mirrored = rng.flip(0.5);
    const Vec2 shift{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
    std::vector<Vec2> pts;
    for (Vec2 p : sim::jittered_grid(rng, n, 3.0)) {
      p = p.rotated(rot) + shift;
      if (mirrored) p.x = -p.x;
      pts.push_back(p * unit);
    }
    for (const std::size_t count : {n, n + 1, k + 1}) {
      for (const NamingMode naming :
           {NamingMode::lexicographic, NamingMode::relative}) {
        const SlicedCore core(snapshot_of(pts, 0), naming, count);
        for (std::size_t j = 0; j < n; ++j) {
          const geom::Granular& g = core.granular(j);
          const double lo = SlicedCore::kCenterFraction * g.radius();
          std::vector<Vec2> probes{g.center()};
          for (int s = 0; s < 8; ++s) {
            const double a = rng.uniform(0.0, geom::kTwoPi);
            probes.push_back(g.center() + Vec2{std::cos(a), std::sin(a)} *
                                              rng.uniform(0.0, 0.95) *
                                              g.radius());
          }
          for (const double eps : {0.0, 1e-15, 1e-12, 1e-9, 1e-6}) {
            for (const double len : {lo * (1.0 - eps), lo * (1.0 + eps)}) {
              const auto d = static_cast<std::size_t>(
                  rng.uniform_int(0, count - 1));
              const auto side = rng.flip(0.5) ? geom::DiameterSide::positive
                                              : geom::DiameterSide::negative;
              probes.push_back(g.point_on(d, side, len));
              const double a = rng.uniform(0.0, geom::kTwoPi);
              probes.push_back(g.center() +
                               Vec2{std::cos(a), std::sin(a)} * len);
            }
          }
          for (const Vec2& p : probes) {
            const auto want = exact(g, p);
            const double r = geom::dist(p, g.center()) / lo;
            ASSERT_EQ(core.classify(j, p), want)
                << "unit=" << unit << " count=" << count << " robot=" << j
                << " |d|/lo=" << r;
            if (r > 0.5 && r < 2.0) ++(want ? near_signal : near_rest);
          }
        }
      }
    }
  }
  // Both answers occur right at the bound.
  EXPECT_GT(near_rest, 0u);
  EXPECT_GT(near_signal, 0u);
}

TEST(SlicedCore, ScrambleLandsOnTheFlatTableCell) {
  // A scramble lands where it did when the labelings were flat row-major
  // tables (n rows for the relative naming, one shared row otherwise): the
  // rank cell garbage % cells takes (garbage >> 8) % n, the inverse cell
  // (garbage >> 16) % cells takes (garbage >> 24) % n. The audit reports
  // exactly the non-vacuous scrambles and restores the fresh answers.
  const std::vector<Vec2> pts{Vec2{0, 0},  Vec2{6, 1},   Vec2{-2, 7},
                              Vec2{5, -6}, Vec2{-7, -3}, Vec2{3, 9},
                              Vec2{-9, 4}};
  const std::size_t n = pts.size();
  sim::Rng rng(4242);
  for (const NamingMode mode :
       {NamingMode::relative, NamingMode::lexicographic}) {
    const SlicedCore fresh(snapshot_of(pts, 2), mode, 4);
    const std::size_t rows = mode == NamingMode::relative ? n : 1;
    const std::size_t cells = rows * n;
    // Cell (i, j) of the flat table robot i reads.
    const auto cell = [&](std::size_t i, std::size_t j) {
      return (rows == 1 ? 0 : i * n) + j;
    };
    std::size_t vacuous = 0;
    std::size_t repaired = 0;
    for (int trial = 0; trial < 400; ++trial) {
      // Small values leave the high bytes zero (value 0 on cell 0 of the
      // inverse view), which makes vacuous scrambles common.
      const std::uint64_t garbage =
          trial % 2 == 0 ? rng.uniform_int(0, 1u << 12) : rng.engine()();
      const std::size_t rank_cell = garbage % cells;
      const std::size_t rank_value = (garbage >> 8) % n;
      const std::size_t inverse_cell = (garbage >> 16) % cells;
      const std::size_t inverse_value = (garbage >> 24) % n;
      SlicedCore core = fresh;
      core.scramble_naming(garbage);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(core.rank(i, j),
                    cell(i, j) == rank_cell ? rank_value : fresh.rank(i, j))
              << "trial " << trial << " (" << i << ", " << j << ")";
          EXPECT_EQ(core.robot_with_rank(i, j),
                    cell(i, j) == inverse_cell ? inverse_value
                                               : fresh.robot_with_rank(i, j))
              << "trial " << trial << " (" << i << ", " << j << ")";
        }
      }
      const bool changed =
          fresh.rank(rank_cell / n, rank_cell % n) != rank_value ||
          fresh.robot_with_rank(inverse_cell / n, inverse_cell % n) !=
              inverse_value;
      EXPECT_EQ(core.audit_naming(), changed) << "trial " << trial;
      (changed ? repaired : vacuous) += 1;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(core.rank(i, j), fresh.rank(i, j));
          ASSERT_EQ(core.robot_with_rank(i, j), fresh.robot_with_rank(i, j));
        }
      }
      EXPECT_FALSE(core.audit_naming());
    }
    EXPECT_GT(vacuous, 0u);
    EXPECT_GT(repaired, 0u);
  }
}

}  // namespace
}  // namespace stig::proto
