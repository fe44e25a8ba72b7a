// Conformance suite: record full traces of every protocol doing real work
// and model-check them against the movement rules; also verify the
// validators themselves catch violations (injected via teleport).
#include <gtest/gtest.h>

#include "core/chat_network.hpp"
#include "geom/angle.hpp"
#include "geom/voronoi.hpp"
#include "proto/conformance.hpp"
#include "sim/placement.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, 25.0, 3.0);
}

std::vector<std::uint8_t> random_payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

TEST(Conformance, SyncSlicedTraceIsClean) {
  const std::size_t n = 6;
  const auto pts = scatter(n, 3);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  for (std::size_t i = 0; i < n; ++i) {
    net.send(i, (i + 1) % n, random_payload(6, i));
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  const auto violations = proto::validate_sliced_trace(
      pts, net.engine().trace().positions(),
      proto::NamingMode::lexicographic, n);
  for (const auto& v : violations) {
    ADD_FAILURE() << "robot " << v.robot << " t=" << v.instant << ": "
                  << v.rule;
  }
}

TEST(Conformance, SyncSlicedRelativeTraceIsClean) {
  const std::size_t n = 5;
  const auto pts = scatter(n, 7);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;  // Relative naming.
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.send(0, 3, random_payload(8, 1));
  net.broadcast(2, random_payload(4, 2));
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  EXPECT_TRUE(proto::validate_sliced_trace(
                  pts, net.engine().trace().positions(),
                  proto::NamingMode::relative, n)
                  .empty());
}

TEST(Conformance, AsyncNTraceIsClean) {
  const std::size_t n = 4;
  const auto pts = scatter(n, 11);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 5;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.send(1, 3, random_payload(2, 3));
  ASSERT_TRUE(net.run_until_quiescent(2'000'000));
  // AsyncN slices into n+1 diameters (kappa included), relative reference.
  EXPECT_TRUE(proto::validate_sliced_trace(
                  pts, net.engine().trace().positions(),
                  proto::NamingMode::relative, n + 1)
                  .empty());
}

TEST(Conformance, KSegmentTraceIsClean) {
  const std::size_t n = 7;
  const auto pts = scatter(n, 13);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.protocol = ProtocolKind::ksegment;
  opt.ksegment_k = 3;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.send(0, 5, random_payload(5, 4));
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  EXPECT_TRUE(proto::validate_sliced_trace(
                  pts, net.engine().trace().positions(),
                  proto::NamingMode::lexicographic, 3 + 1)
                  .empty());
}

TEST(Conformance, Async2TraceIsClean) {
  const geom::Vec2 a{-3, 1};
  const geom::Vec2 b{4, -2};
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 9;
  opt.record_positions = true;
  ChatNetwork net({a, b}, opt);
  net.send(0, 1, random_payload(4, 5));
  net.send(1, 0, random_payload(3, 6));
  ASSERT_TRUE(net.run_until_quiescent(1'000'000));
  EXPECT_TRUE(proto::validate_async2_trace(
                  a, b, net.engine().trace().positions())
                  .empty());
}

TEST(Conformance, BandedAsync2TraceIsClean) {
  const geom::Vec2 a{0, 0};
  const geom::Vec2 b{5, 0};
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.async2_banded = true;
  opt.seed = 13;
  opt.record_positions = true;
  ChatNetwork net({a, b}, opt);
  net.send(0, 1, random_payload(6, 7));
  ASSERT_TRUE(net.run_until_quiescent(1'000'000));
  EXPECT_TRUE(proto::validate_async2_trace(
                  a, b, net.engine().trace().positions())
                  .empty());
}

TEST(Conformance, ValidatorCatchesInjectedViolations) {
  // The validator itself must not be vacuous: a teleported robot outside
  // every legal region is flagged.
  const std::size_t n = 4;
  const auto pts = scatter(n, 17);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.run(3);
  // Off-ray but inside the granular: between two diameters.
  const double r0 = geom::granular_radius(pts, 0);
  const double between = geom::kPi / static_cast<double>(n) / 2.0;
  const geom::Vec2 dir = geom::rotate_clockwise(geom::Vec2{0, 1}, between);
  net.engine().teleport(0, pts[0] + dir * (0.5 * r0));
  net.run(1);
  const auto violations = proto::validate_sliced_trace(
      pts, net.engine().trace().positions(),
      proto::NamingMode::lexicographic, n);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].robot, 0u);
  EXPECT_EQ(violations[0].rule, "off every labeled ray");
}

TEST(Conformance, ValidatorCatchesOutsideGranular) {
  const std::size_t n = 3;
  const auto pts = scatter(n, 19);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.run(2);
  // Far enough outside that the first self-healing step (sigma = 0.25)
  // cannot bring it back inside before the next recorded instant, but well
  // clear of the neighbor's granular.
  const double r1 = geom::granular_radius(pts, 1);
  net.engine().teleport(1, pts[1] + geom::Vec2{1.3 * r1, 0.0});
  net.run(1);
  const auto violations = proto::validate_sliced_trace(
      pts, net.engine().trace().positions(),
      proto::NamingMode::lexicographic, n);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].rule, "outside granular");
}

}  // namespace
}  // namespace stig
