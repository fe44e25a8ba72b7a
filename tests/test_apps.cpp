// Tests for the distributed-algorithms layer (apps/): aggregation and
// leader election over every protocol family the network can select.
#include <gtest/gtest.h>

#include <numeric>

#include "apps/aggregate.hpp"
#include "geom/angle.hpp"
#include "apps/election.hpp"
#include "sim/placement.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, 30.0, 3.0);
}

TEST(Aggregate, MaxByteWithAnnouncement) {
  const std::size_t n = 8;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  ChatNetwork net(scatter(n, 3), opt);
  const std::vector<std::uint8_t> readings{12, 200, 34, 56, 199, 3, 77, 90};
  const auto result = apps::max_byte(net, 2, readings, /*announce=*/true,
                                     1'000'000);
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.value.size(), 1u);
  EXPECT_EQ(result.value[0], 200);
  EXPECT_EQ(result.contributions, n);
  EXPECT_GT(result.instants, 0u);
}

TEST(Aggregate, SumAggregationCustomCombiner) {
  const std::size_t n = 5;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(scatter(n, 7), opt);
  // 16-bit big-endian sums.
  std::vector<std::vector<std::uint8_t>> values;
  std::uint32_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::uint16_t>(100 * i + 7);
    expected += v;
    values.push_back({static_cast<std::uint8_t>(v >> 8),
                      static_cast<std::uint8_t>(v)});
  }
  const auto result = apps::aggregate(
      net, 0, values,
      [](std::vector<std::uint8_t> acc, const std::vector<std::uint8_t>& v) {
        const std::uint32_t a = (acc[0] << 8) | acc[1];
        const std::uint32_t b = (v.at(0) << 8) | v.at(1);
        const std::uint32_t s = a + b;
        acc[0] = static_cast<std::uint8_t>(s >> 8);
        acc[1] = static_cast<std::uint8_t>(s);
        return acc;
      },
      /*announce=*/false, 1'000'000);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ((result.value[0] << 8) | result.value[1], expected);
}

TEST(Aggregate, WorksAsynchronously) {
  const std::size_t n = 3;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 5;
  ChatNetwork net(scatter(n, 11), opt);
  const std::vector<std::uint8_t> readings{9, 150, 42};
  const auto result =
      apps::max_byte(net, 1, readings, /*announce=*/true, 10'000'000);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.value[0], 150);
}

TEST(Aggregate, BudgetExhaustionReportsIncomplete) {
  const std::size_t n = 4;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  ChatNetwork net(scatter(n, 13), opt);
  const std::vector<std::uint8_t> readings{1, 2, 3, 4};
  const auto result =
      apps::max_byte(net, 0, readings, /*announce=*/false, /*budget=*/10);
  EXPECT_FALSE(result.complete);
}

class ElectionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElectionTest, ElectsUniqueLeaderAnonymously) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 6;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;  // Chirality only: anonymous.
  opt.seed = seed;
  ChatNetwork net(scatter(n, 100 + seed), opt);
  const auto result = apps::elect_leader(net, seed * 31, 2'000'000);
  ASSERT_TRUE(result.complete) << "seed=" << seed;
  EXPECT_LT(result.leader, n);
  EXPECT_GE(result.rounds, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElectionTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Election, SymmetricConfigurationStillElects) {
  // The Figure 3 configuration where deterministic election is impossible:
  // randomization breaks the symmetry.
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 6; ++i) {
    const double a = geom::kTwoPi * i / 6.0;
    pts.push_back(geom::Vec2{8 * std::cos(a), 8 * std::sin(a)});
  }
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  ChatNetwork net(pts, opt);
  const auto result = apps::elect_leader(net, 77, 2'000'000);
  ASSERT_TRUE(result.complete);
}

TEST(Election, WorksOverAsyncN) {
  const std::size_t n = 3;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 9;
  ChatNetwork net(scatter(n, 23), opt);
  const auto result = apps::elect_leader(net, 55, 20'000'000);
  ASSERT_TRUE(result.complete);
}

TEST(Election, ChainsWithAggregation) {
  // The classic composition: elect, then aggregate toward the leader.
  const std::size_t n = 5;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  ChatNetwork net(scatter(n, 29), opt);
  const auto election = apps::elect_leader(net, 3, 2'000'000);
  ASSERT_TRUE(election.complete);
  const std::vector<std::uint8_t> readings{5, 250, 17, 99, 180};
  const auto agg = apps::max_byte(net, election.leader, readings,
                                  /*announce=*/true, 2'000'000);
  ASSERT_TRUE(agg.complete);
  EXPECT_EQ(agg.value[0], 250);
}

}  // namespace
}  // namespace stig
