// Asynchronous protocol tests (Sections 4.1 and 4.2): delivery under every
// scheduler (including adversarial), the banded Async2 variant, liveness
// (Lemma 4.4-style: positions keep changing), and property sweeps.
#include <gtest/gtest.h>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "geom/voronoi.hpp"
#include "sim/placement.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::SchedulerKind;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed,
                                double extent = 30.0, double min_gap = 2.0) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, extent, min_gap);
}

std::vector<std::uint8_t> random_payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

ChatNetworkOptions async_options(SchedulerKind kind, std::uint64_t seed) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.scheduler = kind;
  opt.seed = seed;
  opt.fairness_bound = 32;
  return opt;
}

class Async2SchedulerTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(Async2SchedulerTest, DeliversBothWays) {
  ChatNetworkOptions opt = async_options(GetParam(), 3);
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{6, 2}}, opt);
  const auto a = random_payload(6, 1);
  const auto b = random_payload(4, 2);
  net.send(0, 1, a);
  net.send(1, 0, b);
  ASSERT_TRUE(net.run_until_quiescent(500'000));
  net.run(128);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, a);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, b);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, Async2SchedulerTest,
                         ::testing::Values(SchedulerKind::bernoulli,
                                           SchedulerKind::centralized,
                                           SchedulerKind::ksubset,
                                           SchedulerKind::adversarial));

TEST(Async2, NotSilentRemark43) {
  // Remark 4.3 / Section 5: the asynchronous protocols are NOT silent —
  // idle robots still move at every activation.
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 5);
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{4, 0}}, opt);
  net.run(500);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(net.engine().trace().stats(i).moves,
              net.engine().trace().stats(i).activations)
        << i;
    EXPECT_GT(net.engine().trace().stats(i).moves, 0u);
  }
}

TEST(Async2, UnboundedVariantDriftsApart) {
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 7);
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{4, 0}}, opt);
  net.run(2000);
  // The paper's acknowledged drawback: the robots move away infinitely.
  EXPECT_GT(geom::dist(net.engine().positions()[0],
                       net.engine().positions()[1]),
            10.0);
}

TEST(Async2, BandedVariantStaysBounded) {
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 7);
  opt.async2_banded = true;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{4, 0}}, opt);
  const auto msg = random_payload(16, 3);
  net.send(0, 1, msg);
  net.send(1, 0, msg);
  ASSERT_TRUE(net.run_until_quiescent(1'000'000));
  net.run(4000);  // Keep idling: footprint must stay bounded.
  EXPECT_LT(geom::dist(net.engine().positions()[0],
                       net.engine().positions()[1]),
            4.0 * (1.0 + 2 * 0.25) + 1.0);
  net.run(64);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, msg);
  EXPECT_GT(net.engine().trace().min_separation(), 0.5);
}

TEST(Async2, BroadcastReachesPeer) {
  // With one peer there is no broadcast lane to signal on: the broadcast
  // travels as the unicast to the peer and arrives unflagged.
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 13);
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{5, 1}}, opt);
  const auto msg = random_payload(5, 4);
  net.broadcast(0, msg);
  ASSERT_TRUE(net.run_until_quiescent(500'000));
  net.run(128);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, msg);
  EXPECT_EQ(net.received(1)[0].from, 0u);
  EXPECT_EQ(net.received(1)[0].to, 1u);
  EXPECT_FALSE(net.received(1)[0].broadcast);
  EXPECT_TRUE(net.received(0).empty());
}

TEST(Async2, LongMessageUnderSlowActivation) {
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 11);
  opt.activation_probability = 0.15;
  ChatNetwork net({geom::Vec2{-3, 1}, geom::Vec2{5, -2}}, opt);
  const auto msg = random_payload(64, 9);
  net.send(0, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(2'000'000));
  net.run(256);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, msg);
}

class AsyncNSchedulerTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(AsyncNSchedulerTest, DeliversAmongFive) {
  ChatNetworkOptions opt = async_options(GetParam(), 13);
  ChatNetwork net(scatter(5, 17), opt);
  const auto msg = random_payload(3, 4);
  net.send(2, 4, msg);
  ASSERT_TRUE(net.run_until_quiescent(2'000'000));
  net.run(256);
  ASSERT_EQ(net.received(4).size(), 1u);
  EXPECT_EQ(net.received(4)[0].payload, msg);
  EXPECT_EQ(net.received(4)[0].from, 2u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, AsyncNSchedulerTest,
                         ::testing::Values(SchedulerKind::bernoulli,
                                           SchedulerKind::centralized,
                                           SchedulerKind::ksubset,
                                           SchedulerKind::adversarial));

TEST(AsyncN, ConcurrentSendersAllDeliver) {
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 19);
  const std::size_t n = 4;
  ChatNetwork net(scatter(n, 29), opt);
  std::vector<std::vector<std::uint8_t>> msgs(n);
  for (std::size_t i = 0; i < n; ++i) {
    msgs[i] = random_payload(2, 40 + i);
    net.send(i, (i + 1) % n, msgs[i]);
  }
  ASSERT_TRUE(net.run_until_quiescent(3'000'000));
  net.run(512);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t to = (i + 1) % n;
    ASSERT_EQ(net.received(to).size(), 1u) << to;
    EXPECT_EQ(net.received(to)[0].payload, msgs[i]);
    EXPECT_EQ(net.received(to)[0].from, i);
  }
}

TEST(AsyncN, EavesdroppingWorksAsynchronously) {
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 23);
  ChatNetwork net(scatter(4, 37), opt);
  const auto msg = random_payload(3, 6);
  net.send(0, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(2'000'000));
  net.run(512);
  for (std::size_t j = 2; j < 4; ++j) {
    ASSERT_EQ(net.overheard(j).size(), 1u) << j;
    EXPECT_EQ(net.overheard(j)[0].payload, msg);
  }
}

TEST(AsyncN, StaysInsideGranulars) {
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 31);
  opt.record_positions = true;
  const auto pts = scatter(4, 41);
  ChatNetwork net(pts, opt);
  net.send(0, 2, random_payload(2, 2));
  ASSERT_TRUE(net.run_until_quiescent(1'000'000));
  std::vector<double> radius(4);
  for (std::size_t i = 0; i < 4; ++i) {
    radius[i] = geom::granular_radius(pts, i);
  }
  for (const auto& config : net.engine().trace().positions()) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_LT(geom::dist(config[i], pts[i]), radius[i]);
    }
  }
  EXPECT_GT(net.engine().trace().min_separation(), 0.0);
}

TEST(AsyncN, WorksWithIdsAndSenseOfDirectionToo) {
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 43);
  opt.caps.visible_ids = true;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(scatter(5, 43), opt);
  const auto msg = random_payload(3, 7);
  net.send(1, 3, msg);
  ASSERT_TRUE(net.run_until_quiescent(2'000'000));
  net.run(256);
  ASSERT_EQ(net.received(3).size(), 1u);
  EXPECT_EQ(net.received(3)[0].payload, msg);
}

// Property sweep: n and activation probability.
class AsyncNPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(AsyncNPropertyTest, SingleMessageDelivers) {
  const auto [n, p] = GetParam();
  ChatNetworkOptions opt = async_options(SchedulerKind::bernoulli, 100 + n);
  opt.activation_probability = p;
  ChatNetwork net(scatter(n, 1000 + n), opt);
  const auto msg = random_payload(2, n);
  net.send(0, n - 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(4'000'000)) << "n=" << n << " p=" << p;
  net.run(512);
  ASSERT_EQ(net.received(n - 1).size(), 1u) << "n=" << n << " p=" << p;
  EXPECT_EQ(net.received(n - 1)[0].payload, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AsyncNPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 5, 8),
                       ::testing::Values(0.25, 0.5, 0.9)));

}  // namespace
}  // namespace stig
