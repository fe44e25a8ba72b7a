// Differential testing of the security-radius Voronoi construction
// (VoronoiDiagram::compute) against the legacy all-bisectors oracle
// (VoronoiDiagram::compute_halfplane): both must produce the same cells, up
// to floating-point tolerance, on every site-family the simulator can
// produce — uniform random scatters, regular grids (exact ties), collinear
// configurations (degenerate extent, the grid's worst case) and cocircular
// ones (maximal cell symmetry).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "geom/angle.hpp"
#include "geom/convex.hpp"
#include "geom/voronoi.hpp"
#include "sim/placement.hpp"

namespace stig::geom {
namespace {

std::vector<Vec2> random_sites(std::size_t n, std::uint64_t seed,
                               double extent) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, extent, 1e-3);
}

std::vector<Vec2> grid_sites(std::size_t side, double spacing,
                             std::uint64_t jitter_seed = 0) {
  sim::Rng rng(jitter_seed);
  std::vector<Vec2> pts;
  pts.reserve(side * side);
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      Vec2 p{static_cast<double>(x) * spacing,
             static_cast<double>(y) * spacing};
      if (jitter_seed != 0) {
        p.x += rng.uniform(-0.2, 0.2) * spacing;
        p.y += rng.uniform(-0.2, 0.2) * spacing;
      }
      pts.push_back(p);
    }
  }
  return pts;
}

std::vector<Vec2> collinear_sites(std::size_t n, double spacing) {
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(Vec2{static_cast<double>(i) * spacing, 0.0});
  }
  return pts;
}

std::vector<Vec2> cocircular_sites(std::size_t n, double radius) {
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = kTwoPi * static_cast<double>(i) / static_cast<double>(n);
    pts.push_back(Vec2{radius * std::cos(a), radius * std::sin(a)});
  }
  return pts;
}

/// Cell-by-cell equality up to tolerance: equal areas and mutual vertex
/// containment (robust against vertex order/count differences from the two
/// clip sequences).
void expect_same_cells(const VoronoiDiagram& got, const VoronoiDiagram& want,
                       double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ConvexPolygon& a = got.cell(i).polygon;
    const ConvexPolygon& b = want.cell(i).polygon;
    EXPECT_EQ(got.cell(i).site_index, want.cell(i).site_index);
    EXPECT_EQ(got.cell(i).site.x, want.cell(i).site.x);
    EXPECT_EQ(got.cell(i).site.y, want.cell(i).site.y);
    ASSERT_FALSE(a.empty()) << "cell " << i;
    ASSERT_FALSE(b.empty()) << "cell " << i;
    const double scale = std::max(1.0, b.area());
    EXPECT_NEAR(a.area(), b.area(), tol * scale) << "cell " << i;
    for (const Vec2& v : a.vertices()) {
      EXPECT_TRUE(b.contains(v, tol)) << "cell " << i << " vertex ("
                                      << v.x << ", " << v.y << ")";
    }
    for (const Vec2& v : b.vertices()) {
      EXPECT_TRUE(a.contains(v, tol)) << "cell " << i << " vertex ("
                                      << v.x << ", " << v.y << ")";
    }
  }
}

void expect_same_nearest(const VoronoiDiagram& got, const VoronoiDiagram& want,
                         double extent, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int k = 0; k < 200; ++k) {
    const Vec2 q{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
    EXPECT_EQ(got.nearest_site(q), want.nearest_site(q));
  }
}

void run_diff(const std::vector<Vec2>& sites, double extent,
              double margin = -1.0) {
  const VoronoiDiagram fast = VoronoiDiagram::compute(sites, margin);
  const VoronoiDiagram oracle = VoronoiDiagram::compute_halfplane(sites,
                                                                  margin);
  expect_same_cells(fast, oracle, 1e-6);
  expect_same_nearest(fast, oracle, extent, 0xd1ff ^ sites.size());
}

TEST(VoronoiDiff, RandomScatters) {
  for (const std::size_t n : {2u, 3u, 8u, 64u, 256u}) {
    run_diff(random_sites(n, 1000 + n, 50.0), 60.0);
  }
}

TEST(VoronoiDiff, LargeRandomScatter) {
  run_diff(random_sites(2048, 77, 400.0), 450.0);
}

TEST(VoronoiDiff, RegularGridExactTies) {
  run_diff(grid_sites(16, 3.0), 50.0);          // 256 sites, exact ties.
  run_diff(grid_sites(32, 2.0, 5), 70.0);       // 1024 sites, jittered.
}

TEST(VoronoiDiff, CollinearDegradesGracefully) {
  run_diff(collinear_sites(512, 2.0), 1100.0);
  // Near-collinear: a hair of vertical spread.
  std::vector<Vec2> near = collinear_sites(256, 2.0);
  for (std::size_t i = 0; i < near.size(); ++i) {
    near[i].y = (i % 2 == 0 ? 1.0 : -1.0) * 1e-6;
  }
  run_diff(near, 520.0);
}

TEST(VoronoiDiff, Cocircular) {
  run_diff(cocircular_sites(256, 30.0), 40.0);
}

TEST(VoronoiDiff, ExplicitMargins) {
  const std::vector<Vec2> sites = random_sites(64, 4242, 20.0);
  for (const double margin : {0.5, 5.0, 100.0}) {
    run_diff(sites, 25.0, margin);
  }
}

}  // namespace
}  // namespace stig::geom
