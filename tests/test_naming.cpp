// Naming-scheme tests, centered on the property all decoding rests on:
// the constructions are invariant under each observer's frame (translation,
// rotation, positive uniform scale) as long as handedness is shared.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "geom/angle.hpp"
#include "geom/sec.hpp"
#include "proto/naming.hpp"
#include "sim/frame.hpp"
#include "sim/placement.hpp"

namespace stig::proto {
namespace {

using geom::Vec2;

std::vector<Vec2> random_points(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, 20.0, 0.5);
}

std::vector<Vec2> transform_all(const std::vector<Vec2>& pts,
                                const sim::Frame& f) {
  std::vector<Vec2> out;
  out.reserve(pts.size());
  for (const Vec2& p : pts) out.push_back(f.to_local(p));
  return out;
}

TEST(LexRanks, OrdersLexicographically) {
  const std::vector<Vec2> pts{Vec2{2, 0}, Vec2{0, 5}, Vec2{0, -1},
                              Vec2{2, -3}};
  const auto ranks = lex_ranks(pts);
  // Sorted: (0,-1), (0,5), (2,-3), (2,0).
  EXPECT_EQ(ranks[2], 0u);
  EXPECT_EQ(ranks[1], 1u);
  EXPECT_EQ(ranks[3], 2u);
  EXPECT_EQ(ranks[0], 3u);
}

TEST(LexRanks, InvariantUnderTranslationAndScale) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pts = random_points(9, seed);
    const auto base = lex_ranks(pts);
    sim::Rng rng(seed + 100);
    // Translation and positive scaling only (sense of direction fixes the
    // axes; units and origins still differ).
    const sim::Frame f(Vec2{rng.uniform(-5, 5), rng.uniform(-5, 5)}, 0.0,
                       rng.uniform(0.2, 5.0), false);
    EXPECT_EQ(lex_ranks(transform_all(pts, f)), base) << seed;
  }
}

TEST(IdRanks, OrdersById) {
  const std::vector<sim::VisibleId> ids{42, 7, 100, 9};
  const auto ranks = id_ranks(ids);
  EXPECT_EQ(ranks[1], 0u);
  EXPECT_EQ(ranks[3], 1u);
  EXPECT_EQ(ranks[0], 2u);
  EXPECT_EQ(ranks[2], 3u);
}

TEST(HorizonDirection, PointsOutwardFromSecCenter) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pts = random_points(8, seed * 3);
    const geom::Circle sec = geom::smallest_enclosing_circle(pts);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (geom::dist(pts[i], sec.center) < 1e-6) continue;
      const Vec2 h = horizon_direction(pts, i);
      EXPECT_NEAR(h.norm(), 1.0, 1e-9);
      EXPECT_GT(geom::dot(h, pts[i] - sec.center), 0.0);
    }
  }
}

TEST(HorizonDirection, DegenerateCenterIsDeterministicAndInvariant) {
  // Robot 0 exactly at the SEC center of the others.
  std::vector<Vec2> pts{Vec2{0, 0}, Vec2{3, 0}, Vec2{-3, 0}, Vec2{0, 3},
                        Vec2{1, 1}};
  const Vec2 h = horizon_direction(pts, 0);
  EXPECT_NEAR(h.norm(), 1.0, 1e-9);
  // Same rule under a rotated/scaled frame gives the transformed direction.
  const sim::Frame f(Vec2{2, -1}, 1.234, 3.0, false);
  const Vec2 h2 = horizon_direction(transform_all(pts, f), 0);
  const Vec2 expected =
      (f.to_local(pts[0] + h) - f.to_local(pts[0])).normalized();
  EXPECT_NEAR(geom::dist(h2, expected), 0.0, 1e-7);
}

TEST(RelativeNaming, PaperOrdering) {
  // A hand-built configuration: self on the East of the SEC, one robot on
  // the same radius nearer the center, others spread clockwise.
  // SEC of the set below is centered at the origin with radius 5.
  const std::vector<Vec2> pts{
      Vec2{5, 0},    // 0: self, on its own radius (angle 0).
      Vec2{2, 0},    // 1: same radius as self, closer to O -> rank before.
      Vec2{0, -5},   // 2: 90deg clockwise from East (pointing South).
      Vec2{-5, 0},   // 3: 180deg.
      Vec2{0, 5},    // 4: 270deg clockwise.
  };
  const RelativeNaming naming = relative_naming(pts, 0);
  EXPECT_TRUE(geom::nearly_equal(naming.sec_center, Vec2{0, 0}, 1e-7));
  // H_0 points East; robots on it ordered from O: 1 then 0.
  EXPECT_EQ(naming.ranks[1], 0u);
  EXPECT_EQ(naming.ranks[0], 1u);
  EXPECT_EQ(naming.ranks[2], 2u);  // First clockwise radius.
  EXPECT_EQ(naming.ranks[3], 3u);
  EXPECT_EQ(naming.ranks[4], 4u);
}

TEST(RelativeNaming, RanksAreAPermutation) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto pts = random_points(11, seed * 7);
    for (std::size_t self = 0; self < pts.size(); ++self) {
      const auto naming = relative_naming(pts, self);
      std::vector<bool> seen(pts.size(), false);
      for (const std::size_t r : naming.ranks) {
        ASSERT_LT(r, pts.size());
        EXPECT_FALSE(seen[r]);
        seen[r] = true;
      }
    }
  }
}

// The core invariance property: every observer, whatever its frame
// (rotation, scale, translation — same handedness), reconstructs the same
// relative naming of every robot. This is what makes Section 3.4 decodable.
class RelativeNamingInvariance
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RelativeNamingInvariance, SameRanksInAnySameHandedFrame) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pts = random_points(n, seed * 13 + n);
    sim::Rng rng(seed);
    for (int frame_trial = 0; frame_trial < 4; ++frame_trial) {
      const sim::Frame f(Vec2{rng.uniform(-30, 30), rng.uniform(-30, 30)},
                         rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(0.2, 5.0), false);
      const auto local = transform_all(pts, f);
      for (std::size_t self = 0; self < n; ++self) {
        EXPECT_EQ(relative_naming(local, self).ranks,
                  relative_naming(pts, self).ranks)
            << "n=" << n << " seed=" << seed << " self=" << self;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelativeNamingInvariance,
                         ::testing::Values(2, 3, 4, 6, 10, 25));

TEST(RelativeNaming, MirroredFramesAgreeWithEachOther) {
  // Chirality: two LEFT-handed observers agree (even though they disagree
  // with right-handed ones).
  const auto pts = random_points(7, 5);
  const sim::Frame f1(Vec2{1, 2}, 0.7, 2.0, true);
  const sim::Frame f2(Vec2{-3, 0}, 2.9, 0.5, true);
  for (std::size_t self = 0; self < pts.size(); ++self) {
    EXPECT_EQ(relative_naming(transform_all(pts, f1), self).ranks,
              relative_naming(transform_all(pts, f2), self).ranks);
  }
}

TEST(RelativeNaming, SymmetricConfigurationStillRelativelyConsistent) {
  // The paper's Figure 3 point: a rotationally symmetric configuration has
  // no common global naming — but the *relative* naming per robot is still
  // well-defined and computable by everyone.
  std::vector<Vec2> pts;
  for (int i = 0; i < 6; ++i) {
    const double a = geom::kTwoPi * i / 6.0;
    pts.push_back(Vec2{4 * std::cos(a), 4 * std::sin(a)});
  }
  // Under the symmetry, every robot sees the same *pattern* of ranks
  // relative to itself: its own rank equal, and the full rank multiset
  // identical.
  const auto base = relative_naming(pts, 0);
  for (std::size_t self = 1; self < 6; ++self) {
    const auto naming = relative_naming(pts, self);
    EXPECT_EQ(naming.ranks[self], base.ranks[0]);
  }
  // And frame invariance holds here too.
  const sim::Frame f(Vec2{0.5, 0.5}, 1.1, 3.0, false);
  const auto local = transform_all(pts, f);
  for (std::size_t self = 0; self < 6; ++self) {
    EXPECT_EQ(relative_naming(local, self).ranks,
              relative_naming(pts, self).ranks);
  }
}


// NamingRing differential: every row of the ring must equal the single-row
// definition, `relative_naming`, rank for rank, and its reference must be
// the same H_s bit for bit. Returns the number of explicit rows.
std::size_t expect_ring_matches_rows(const std::vector<Vec2>& pts,
                                     const char* what) {
  const geom::Circle sec = geom::smallest_enclosing_circle(pts);
  std::vector<Vec2> references;
  const NamingRing ring = NamingRing::relative(pts, sec, references);
  EXPECT_EQ(ring.size(), pts.size()) << what;
  EXPECT_EQ(references.size(), pts.size()) << what;
  for (std::size_t s = 0; s < pts.size(); ++s) {
    const RelativeNaming want = relative_naming(pts, s, sec);
    EXPECT_EQ(references[s], want.reference) << what << " row " << s;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      EXPECT_EQ(ring.rank(s, j), want.ranks[j])
          << what << " row " << s << " robot " << j;
      EXPECT_EQ(ring.robot_with_rank(s, want.ranks[j]), j)
          << what << " row " << s << " rank " << want.ranks[j];
    }
  }
  return ring.explicit_rows();
}

std::vector<Vec2> on_circle(double angle, double radius) {
  return {Vec2{radius * std::cos(angle), radius * std::sin(angle)}};
}

/// A square lattice centered on O, with or without the robot at O.
std::vector<Vec2> lattice(int half, bool with_center) {
  std::vector<Vec2> pts;
  for (int x = -half; x <= half; ++x) {
    for (int y = -half; y <= half; ++y) {
      if (x == 0 && y == 0 && !with_center) continue;
      pts.push_back(Vec2{1.5 * x, 1.5 * y});
    }
  }
  return pts;
}

/// Robots on a few rays through the origin, several per ray.
std::vector<Vec2> rays(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Vec2> pts;
  for (int ray = 0; ray < 7; ++ray) {
    const double a = rng.uniform(0.0, geom::kTwoPi);
    for (int k = 1; k <= 5; ++k) {
      const auto p = on_circle(a, 2.0 * k + rng.uniform(0.0, 1.0));
      pts.push_back(p.front());
    }
  }
  return pts;
}

/// Random points plus one robot exactly at their SEC center.
std::vector<Vec2> with_center_robot(std::uint64_t seed) {
  std::vector<Vec2> pts = random_points(15, seed);
  pts.push_back(geom::smallest_enclosing_circle(pts).center);
  return pts;
}

/// Random points plus clusters of robots whose angles around the origin
/// (their SEC center: the cluster radii stay inside the hull ring) differ
/// by less than `spread` rad, at shuffled distances from it.
std::vector<Vec2> near_ties(double spread, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Vec2> pts;
  for (int k = 0; k < 12; ++k) {
    pts.push_back(on_circle(geom::kTwoPi * k / 12.0, 40.0).front());
  }
  for (int cluster = 0; cluster < 8; ++cluster) {
    const double a = rng.uniform(0.0, geom::kTwoPi);
    for (int k = 0; k < 5; ++k) {
      pts.push_back(on_circle(a + rng.uniform(0.0, spread),
                              4.0 * k + 5.0 + rng.uniform(0.0, 2.0))
                        .front());
    }
  }
  return pts;
}

std::vector<Vec2> in_random_frame(const std::vector<Vec2>& pts,
                                  sim::Rng& rng) {
  const sim::Frame f(Vec2{rng.uniform(-30, 30), rng.uniform(-30, 30)},
                     rng.uniform(0.0, geom::kTwoPi), rng.uniform(0.2, 5.0),
                     false);
  return transform_all(pts, f);
}

TEST(NamingRing, GenericConfigurationsAreRotations) {
  std::vector<std::pair<std::string, std::vector<Vec2>>> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t n : {2u, 3u, 9u, 40u}) {
      cases.emplace_back("random", random_points(n, seed * 31 + n));
    }
    cases.emplace_back("rays", rays(seed));
    cases.emplace_back("center robot", with_center_robot(seed));
  }
  cases.emplace_back("lattice", lattice(3, false));
  cases.emplace_back("lattice with center", lattice(3, true));
  sim::Rng rng(2026);
  for (const auto& [what, pts] : cases) {
    EXPECT_EQ(expect_ring_matches_rows(pts, what.c_str()), 0u) << what;
    for (int frame = 0; frame < 3; ++frame) {
      EXPECT_EQ(expect_ring_matches_rows(in_random_frame(pts, rng),
                                         what.c_str()),
                0u)
          << what << " frame " << frame;
    }
  }
}

TEST(NamingRing, NearTiesFallBackToExplicitRows) {
  sim::Rng rng(77);
  for (const double spread : {1e-8, 1e-6}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::vector<Vec2> pts = near_ties(spread, seed);
      EXPECT_GE(expect_ring_matches_rows(pts, "near ties"), 1u)
          << spread << " seed " << seed;
      for (int frame = 0; frame < 3; ++frame) {
        EXPECT_GE(
            expect_ring_matches_rows(in_random_frame(pts, rng), "near ties"),
            1u)
            << spread << " seed " << seed << " frame " << frame;
      }
    }
  }
}

}  // namespace
}  // namespace stig::proto
