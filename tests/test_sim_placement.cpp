// Starting placements (sim/placement): the rejection scatter and jittered
// grid every surface draws from. The golden coordinates pin each caller's
// recipe bit for bit, since fuzz digests, corpora, PERF baselines and the
// serve conformance bytes all derive from them.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "fuzz/fuzz_config.hpp"
#include "serve/session.hpp"
#include "sim/placement.hpp"

namespace stig {
namespace {

using geom::Vec2;

double min_pairwise_gap(const std::vector<Vec2>& pts) {
  double gap = 1e300;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      gap = std::min(gap, geom::dist(pts[i], pts[j]));
    }
  }
  return gap;
}

void expect_golden(const std::vector<Vec2>& pts, std::size_t n, Vec2 first,
                   Vec2 last, double min_gap) {
  ASSERT_EQ(pts.size(), n);
  EXPECT_EQ(pts.front().x, first.x);
  EXPECT_EQ(pts.front().y, first.y);
  EXPECT_EQ(pts.back().x, last.x);
  EXPECT_EQ(pts.back().y, last.y);
  EXPECT_GE(min_pairwise_gap(pts), min_gap);
}

TEST(Placement, ChatRecipeGolden) {
  // stigsim and the fuzzer: the fixed +-30 box up to n = 256, widened by
  // sqrt(n / 128) above, where the unwidened box jams near 280 robots (a
  // repro edited to n = 400 must still place under stigsim --replay).
  expect_golden(fuzz::scatter(1, 5), 5,
                {-7.1313934894124458, 13.729510808335533},
                {13.375139659718478, 4.781040189678059}, 3.0);
  expect_golden(fuzz::scatter(1, 512), 512,
                {-14.262786978824892, 27.459021616671066},
                {31.633478026748747, -54.489212491818542}, 3.0);
  EXPECT_EQ(fuzz::scatter(3, 400).size(), 400u);
}

TEST(Placement, ServeRecipeGolden) {
  expect_golden(serve::scatter_positions(32, 7), 32,
                {3.6639558136905563, -17.495516924079638},
                {16.205342087395906, -16.732684918990604}, 3.0);
}

TEST(Placement, JitteredGridGolden) {
  // The perf matrix's sliced_n1024 cell.
  sim::Rng rng(19);
  expect_golden(sim::jittered_grid(rng, 1024, 3.0), 1024,
                {0.23438500488829661, 0.054869419043442003},
                {93.186143687943542, 93.35977200552982}, 2.0);
}

TEST(Placement, InfeasibleScatterThrowsInsteadOfHanging) {
  // 50 disks of diameter 3 cannot fit a 10x10 box: the budget of
  // 1000 * 50 + 100000 attempts runs out.
  sim::Rng rng(1);
  EXPECT_THROW((void)sim::scatter(rng, 50, 5.0, 3.0), std::invalid_argument);
}

}  // namespace
}  // namespace stig
