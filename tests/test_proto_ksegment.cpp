// KSegment protocol tests (Section 5 extension): delivery across k values,
// symbol accounting against the paper's log_k(n) prediction, interleaved
// messages, and naming-mode coverage.
#include <gtest/gtest.h>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "encode/ksegment_code.hpp"
#include "sim/placement.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, 40.0, 2.0);
}

std::vector<std::uint8_t> random_payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

ChatNetworkOptions ksegment_options(std::size_t k, bool sod = true) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = sod;
  opt.protocol = ProtocolKind::ksegment;
  opt.ksegment_k = k;
  return opt;
}

class KSegmentKTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KSegmentKTest, DeliversWithPredictedSymbolCount) {
  const std::size_t k = GetParam();
  const std::size_t n = 12;
  ChatNetwork net(scatter(n, 3), ksegment_options(k));
  const auto msg = random_payload(6, k);
  net.send(0, 7, msg);
  const std::uint64_t frame_bits = encode::encode_frame(msg).size();
  const std::uint64_t digits = encode::digits_needed(n, k);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(4);
  ASSERT_EQ(net.received(7).size(), 1u);
  EXPECT_EQ(net.received(7)[0].payload, msg);
  // 2 instants per symbol; symbols = index digits + payload bits.
  EXPECT_EQ(net.engine().now() - 4, 2 * (frame_bits + digits));
}

INSTANTIATE_TEST_SUITE_P(Bases, KSegmentKTest,
                         ::testing::Values(2, 3, 4, 8, 11));

TEST(KSegment, ConsecutiveMessagesToDifferentAddressees) {
  const std::size_t n = 8;
  ChatNetwork net(scatter(n, 11), ksegment_options(3));
  const auto a = random_payload(3, 1);
  const auto b = random_payload(5, 2);
  const auto c = random_payload(2, 3);
  net.send(0, 3, a);
  net.send(0, 6, b);
  net.send(0, 3, c);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(4);
  ASSERT_EQ(net.received(3).size(), 2u);
  EXPECT_EQ(net.received(3)[0].payload, a);
  EXPECT_EQ(net.received(3)[1].payload, c);
  ASSERT_EQ(net.received(6).size(), 1u);
  EXPECT_EQ(net.received(6)[0].payload, b);
}

TEST(KSegment, ConcurrentSenders) {
  const std::size_t n = 6;
  ChatNetwork net(scatter(n, 17), ksegment_options(4));
  std::vector<std::vector<std::uint8_t>> msgs(n);
  for (std::size_t i = 0; i < n; ++i) {
    msgs[i] = random_payload(4, 30 + i);
    net.send(i, (i + 2) % n, msgs[i]);
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(4);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t to = (i + 2) % n;
    ASSERT_EQ(net.received(to).size(), 1u);
    EXPECT_EQ(net.received(to)[0].payload, msgs[i]);
    EXPECT_EQ(net.received(to)[0].from, i);
  }
}

TEST(KSegment, RelativeNamingMode) {
  // Chirality only: the k-segment variant composes with the SEC naming.
  const std::size_t n = 7;
  ChatNetwork net(scatter(n, 23), ksegment_options(3, /*sod=*/false));
  const auto msg = random_payload(4, 9);
  net.send(5, 2, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(4);
  ASSERT_EQ(net.received(2).size(), 1u);
  EXPECT_EQ(net.received(2)[0].payload, msg);
  EXPECT_EQ(net.received(2)[0].from, 5u);
}

TEST(KSegment, EavesdropAcrossPrefixes) {
  const std::size_t n = 5;
  ChatNetwork net(scatter(n, 29), ksegment_options(2));
  const auto msg = random_payload(3, 13);
  net.send(1, 2, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(4);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == 1 || j == 2) continue;
    ASSERT_EQ(net.overheard(j).size(), 1u) << j;
    EXPECT_EQ(net.overheard(j)[0].payload, msg);
    EXPECT_EQ(net.overheard(j)[0].to, 2u);
  }
}

TEST(KSegment, RejectsKBelowTwo) {
  EXPECT_THROW(ChatNetwork(scatter(4, 31), ksegment_options(1)),
               std::invalid_argument);
}

TEST(KSegment, SilentWhenIdle) {
  ChatNetwork net(scatter(5, 37), ksegment_options(4));
  net.run(100);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(net.engine().trace().stats(i).moves, 0u);
  }
}

}  // namespace
}  // namespace stig
