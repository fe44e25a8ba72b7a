// Voronoi / convex-polygon / granular tests, including the cross-check the
// design calls out: polygon-based distance-to-boundary at a site equals the
// closed-form granular radius (half the nearest-neighbor distance).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "geom/angle.hpp"
#include "geom/convex.hpp"
#include "geom/granular.hpp"
#include "geom/voronoi.hpp"
#include "sim/placement.hpp"

namespace stig::geom {
namespace {

std::vector<Vec2> random_sites(std::size_t n, std::uint64_t seed,
                               double extent = 50.0) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, extent, 1e-3);
}

TEST(ConvexPolygon, RectangleBasics) {
  const ConvexPolygon r = ConvexPolygon::rectangle(0, 0, 4, 2);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_NEAR(r.area(), 8.0, kEps);
  EXPECT_TRUE(nearly_equal(r.centroid(), Vec2{2, 1}));
  EXPECT_TRUE(r.contains(Vec2{1, 1}));
  EXPECT_TRUE(r.contains(Vec2{0, 0}));  // Boundary counts.
  EXPECT_FALSE(r.contains(Vec2{5, 1}));
  EXPECT_NEAR(r.distance_to_boundary(Vec2{2, 1}), 1.0, kEps);
}

TEST(ConvexPolygon, ClipKeepsHalf) {
  const ConvexPolygon r = ConvexPolygon::rectangle(0, 0, 4, 4);
  // Keep the left half: points left of the upward line x = 2.
  const HalfPlane hp{Line{Vec2{2, 0}, Vec2{0, 1}}};
  const ConvexPolygon c = r.clipped(hp);
  EXPECT_NEAR(c.area(), 8.0, 1e-9);
  EXPECT_TRUE(c.contains(Vec2{1, 1}));
  EXPECT_FALSE(c.contains(Vec2{3, 1}));
}

TEST(ConvexPolygon, ClipToEmpty) {
  const ConvexPolygon r = ConvexPolygon::rectangle(0, 0, 4, 4);
  const HalfPlane hp{Line{Vec2{10, 0}, Vec2{0, 1}}};
  // Everything right of x=10 -> nothing of the rectangle survives... the
  // half-plane keeps the LEFT of the upward line, so flip direction:
  const HalfPlane away{Line{Vec2{10, 0}, Vec2{0, -1}}};
  EXPECT_FALSE(r.clipped(hp).empty());
  EXPECT_TRUE(r.clipped(away).empty());
}

TEST(ConvexPolygon, RepeatedClipsMatchHalfplaneIntersection) {
  const ConvexPolygon box = ConvexPolygon::rectangle(-10, -10, 10, 10);
  const std::vector<HalfPlane> hps{
      HalfPlane{Line{Vec2{0, -5}, Vec2{1, 0}}},   // y >= -5 kept (left of ->x).
      HalfPlane{Line{Vec2{0, 5}, Vec2{-1, 0}}},   // y <= 5.
      HalfPlane{Line{Vec2{5, 0}, Vec2{0, 1}}},    // x <= 5.
  };
  const ConvexPolygon p = intersect_halfplanes(box, hps);
  EXPECT_NEAR(p.area(), 15.0 * 10.0, 1e-9);
}

TEST(Voronoi, NearestSiteMatchesCellContainment) {
  const std::vector<Vec2> sites = random_sites(20, 3);
  const VoronoiDiagram vd = VoronoiDiagram::compute(sites);
  sim::Rng rng(71);
  for (int trial = 0; trial < 500; ++trial) {
    const Vec2 q{rng.uniform(-49, 49), rng.uniform(-49, 49)};
    const std::size_t nearest = vd.nearest_site(q);
    // q must be inside (or on the boundary of) the nearest site's cell and
    // strictly outside every other cell interior.
    EXPECT_TRUE(vd.cell(nearest).polygon.contains(q, 1e-7));
    for (const VoronoiCell& c : vd.cells()) {
      if (c.site_index == nearest) continue;
      if (c.polygon.contains(q, -1e-7)) {
        // q claims to be strictly inside another cell: it must then be
        // equidistant (on a boundary), not closer.
        EXPECT_NEAR(dist(q, c.site), dist(q, sites[nearest]), 1e-6);
      }
    }
  }
}

TEST(Voronoi, SitesLieInOwnCells) {
  const std::vector<Vec2> sites = random_sites(40, 9);
  const VoronoiDiagram vd = VoronoiDiagram::compute(sites);
  for (const VoronoiCell& c : vd.cells()) {
    EXPECT_TRUE(c.polygon.contains(c.site, 1e-9));
    EXPECT_GT(c.polygon.area(), 0.0);
  }
}

TEST(Voronoi, CellsPartitionTheBox) {
  const std::vector<Vec2> sites = random_sites(12, 21, 10.0);
  const double margin = 5.0;
  const VoronoiDiagram vd = VoronoiDiagram::compute(sites, margin);
  double xmin = 1e18, ymin = 1e18, xmax = -1e18, ymax = -1e18;
  for (const Vec2& s : sites) {
    xmin = std::min(xmin, s.x);
    ymin = std::min(ymin, s.y);
    xmax = std::max(xmax, s.x);
    ymax = std::max(ymax, s.y);
  }
  const double box_area =
      (xmax - xmin + 2 * margin) * (ymax - ymin + 2 * margin);
  double total = 0.0;
  for (const VoronoiCell& c : vd.cells()) total += c.polygon.area();
  EXPECT_NEAR(total, box_area, 1e-6 * box_area);
}

// The design-document cross-check, as a parameterized property test.
class GranularRadiusTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GranularRadiusTest, ClosedFormMatchesPolygonDistance) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::vector<Vec2> sites = random_sites(n, seed * 131 + n);
    const VoronoiDiagram vd = VoronoiDiagram::compute(sites);
    for (std::size_t i = 0; i < n; ++i) {
      const double closed = granular_radius(sites, i);
      const double poly = vd.cell(i).polygon.distance_to_boundary(sites[i]);
      // The polygon boundary includes the bounding box; the box margin is
      // the configuration diameter, so interior sites are never truncated —
      // but a hull site's disc may be bounded by the box, making poly >=
      // closed impossible and poly <= closed true... in all cases the
      // *bisector* edges are at exactly `closed`, so poly <= closed, with
      // equality whenever the nearest edge is a bisector.
      EXPECT_LE(poly, closed + 1e-9) << "n=" << n << " i=" << i;
      EXPECT_NEAR(poly, closed, 1e-7) << "n=" << n << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GranularRadiusTest,
                         ::testing::Values(2, 3, 5, 10, 30, 100));

TEST(Voronoi, MarginFloorKeepsGranularsInCollinearBoxes) {
  // Regression: an explicit margin far below the nearest-neighbour scale
  // used to collapse the clip box of a collinear configuration to a
  // near-zero-height strip, truncating every cell below its granular disc.
  // The effective margin is floored at half the largest nearest-neighbour
  // distance — exactly the inflation that keeps every granular inside the
  // box — so the polygon distance must still equal the closed form.
  std::vector<Vec2> line;
  for (int i = 0; i < 9; ++i) line.push_back(Vec2{2.0 * i, 0.0});
  for (const double margin : {1e-6, 0.01, 0.5}) {
    for (const VoronoiDiagram& vd :
         {VoronoiDiagram::compute(line, margin),
          VoronoiDiagram::compute_halfplane(line, margin)}) {
      for (const VoronoiCell& c : vd.cells()) {
        EXPECT_GT(c.polygon.area(), 0.0);
        EXPECT_NEAR(c.polygon.distance_to_boundary(c.site),
                    granular_radius(line, c.site_index), 1e-9)
            << "margin " << margin << " site " << c.site_index;
      }
    }
  }
  // Near-collinear: a hair of vertical spread, same guarantee.
  std::vector<Vec2> bent = line;
  for (std::size_t i = 0; i < bent.size(); ++i) {
    bent[i].y = (i % 2 == 0 ? 1.0 : -1.0) * 1e-9;
  }
  const VoronoiDiagram vd = VoronoiDiagram::compute(bent, 1e-6);
  for (const VoronoiCell& c : vd.cells()) {
    EXPECT_GE(c.polygon.distance_to_boundary(c.site),
              granular_radius(bent, c.site_index) - 1e-9);
  }
}

TEST(Voronoi, GranularClosedFormMatchesPolygonAtTightSpacing) {
  // Large-n, tight-spacing cross-check of the closed-form granular radius
  // (half the nearest-neighbour distance — what robots actually use)
  // against the polygon's distance_to_boundary. Regression for the
  // line-intersection parallel test: its scale floor used to declare the
  // bisectors of micro-spaced sites parallel, corrupting cells (poly
  // radius off by ~1e-7 at 1e-6 spacing, including empty cells). With the
  // sine-relative test, residual disagreement is vertex-placement noise
  // from box-scale coordinates (~2e-16 absolute observed); pinned at
  // 1e-9 relative + 1e-15 absolute.
  sim::Rng rng(881);
  for (const double spacing : {1e-6, 1e-3, 1.0}) {
    std::vector<Vec2> sites;
    for (int y = 0; y < 24; ++y) {
      for (int x = 0; x < 24; ++x) {
        sites.push_back(Vec2{(x + rng.uniform(-0.2, 0.2)) * spacing,
                             (y + rng.uniform(-0.2, 0.2)) * spacing});
      }
    }
    const VoronoiDiagram vd = VoronoiDiagram::compute(sites);
    for (const VoronoiCell& c : vd.cells()) {
      const double closed = granular_radius(sites, c.site_index);
      const double poly = c.polygon.distance_to_boundary(c.site);
      EXPECT_LE(std::fabs(poly - closed), 1e-9 * closed + 1e-15)
          << "spacing " << spacing << " site " << c.site_index
          << " closed " << closed << " poly " << poly;
    }
  }
}

TEST(Granular, DirectionsAndPoints) {
  // 4 diameters, North reference: diameter 0+ is North, 1+ is NE at 45deg
  // clockwise... with 4 diameters slice width is pi/4.
  const Granular g(Vec2{0, 0}, 2.0, 4, Vec2{0, 1});
  EXPECT_NEAR(g.slice_width(), kPi / 4, kEps);
  EXPECT_TRUE(nearly_equal(g.direction(0, DiameterSide::positive), Vec2{0, 1}));
  EXPECT_TRUE(
      nearly_equal(g.direction(0, DiameterSide::negative), Vec2{0, -1}));
  EXPECT_TRUE(nearly_equal(g.direction(2, DiameterSide::positive), Vec2{1, 0}));
  EXPECT_TRUE(nearly_equal(g.point_on(2, DiameterSide::positive, 1.5),
                           Vec2{1.5, 0}));
}

TEST(Granular, ClassifyRoundTrip) {
  sim::Rng rng(12);
  for (std::size_t m : {1u, 2u, 3u, 5u, 12u, 33u}) {
    const double ref_angle = rng.uniform(0.0, kTwoPi);
    const Granular g(Vec2{rng.uniform(-5, 5), rng.uniform(-5, 5)}, 3.0, m,
                     Vec2{std::cos(ref_angle), std::sin(ref_angle)});
    for (std::size_t d = 0; d < m; ++d) {
      for (const auto side :
           {DiameterSide::positive, DiameterSide::negative}) {
        const double r = rng.uniform(0.1, 2.9);
        const auto fix = g.classify(g.point_on(d, side, r));
        ASSERT_TRUE(fix.has_value());
        EXPECT_EQ(fix->diameter, d) << "m=" << m;
        EXPECT_EQ(fix->side, side) << "m=" << m;
        EXPECT_NEAR(fix->distance, r, 1e-9);
        EXPECT_NEAR(fix->angular_error, 0.0, 1e-7);
      }
    }
  }
}

TEST(Granular, ClassifyCenterIsNull) {
  const Granular g(Vec2{1, 1}, 2.0, 6, Vec2{0, 1});
  EXPECT_FALSE(g.classify(Vec2{1, 1}).has_value());
  EXPECT_FALSE(g.classify(Vec2{1 + 1e-12, 1}).has_value());
}

TEST(Granular, OppositeSide) {
  EXPECT_EQ(opposite(DiameterSide::positive), DiameterSide::negative);
  EXPECT_EQ(opposite(DiameterSide::negative), DiameterSide::positive);
}

TEST(Granular, Contains) {
  const Granular g(Vec2{0, 0}, 2.0, 4, Vec2{0, 1});
  EXPECT_TRUE(g.contains(Vec2{1, 1}));
  EXPECT_FALSE(g.contains(Vec2{2, 1}));
}

}  // namespace
}  // namespace stig::geom
