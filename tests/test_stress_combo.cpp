// Combination stress tests: the model stressors and protocol extensions
// composed — the configurations a real deployment would actually face
// (noisy sensors + asynchrony, delay + flocking, adversarial scheduling +
// bounded footprint, fault injection + broadcast, ...).
#include <gtest/gtest.h>

#include "core/chat_network.hpp"
#include "geom/voronoi.hpp"
#include "sim/placement.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::SchedulerKind;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed,
                                double min_gap = 4.0) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, 30.0, min_gap);
}

std::vector<std::uint8_t> random_payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

TEST(Combo, AsyncNWithNoisySensors) {
  // Quantized observation + asynchronous double-ack protocol: steps are
  // ~0.11 * R >> quantum, so changes stay visible and slices decodable.
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.observation_quantum = 0.01;
  opt.seed = 3;
  ChatNetwork net(scatter(4, 5), opt);
  const auto msg = random_payload(2, 1);
  net.send(0, 3, msg);
  ASSERT_TRUE(net.run_until_quiescent(4'000'000));
  net.run(512);
  ASSERT_EQ(net.received(3).size(), 1u);
  EXPECT_EQ(net.received(3)[0].payload, msg);
}

TEST(Combo, FlockingWithDelayAndQuantization) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.flock_velocity = geom::Vec2{0.04, 0.02};
  opt.sigma = 0.8;
  opt.observation_delay = 2;
  opt.observation_quantum = 0.001;
  ChatNetwork net(scatter(4, 7), opt);
  const auto msg = random_payload(5, 2);
  net.send(1, 2, msg);
  ASSERT_TRUE(net.run_until_quiescent(200'000));
  net.run(8);
  ASSERT_EQ(net.received(2).size(), 1u);
  EXPECT_EQ(net.received(2)[0].payload, msg);
}

TEST(Combo, BandedAsync2UnderAdversary) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.scheduler = SchedulerKind::adversarial;
  opt.fairness_bound = 16;
  opt.async2_banded = true;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{5, 0}}, opt);
  const auto msg = random_payload(4, 3);
  net.send(0, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(5'000'000));
  net.run(128);
  ASSERT_EQ(net.received(1).size(), 1u);
  // Banded bound holds even under the adversary.
  EXPECT_LT(net.engine().positions()[0].norm(), 10.0);
}

TEST(Combo, BroadcastSurvivesTransientFault) {
  const std::size_t n = 5;
  const auto pts = scatter(n, 11);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(pts, opt);
  // Fault a robot, let it heal, then broadcast from it.
  const double r2 = geom::granular_radius(pts, 2);
  net.engine().teleport(2, pts[2] + geom::Vec2{0.0, 0.5 * r2});
  net.run(60);
  const auto msg = random_payload(4, 4);
  net.broadcast(2, msg);
  ASSERT_TRUE(net.run_until_quiescent(200'000));
  net.run(4);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == 2) continue;
    ASSERT_EQ(net.received(j).size(), 1u) << j;
    EXPECT_EQ(net.received(j)[0].payload, msg);
  }
}

TEST(Combo, KSegmentUnderDelayAndMirroredFrames) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.protocol = ProtocolKind::ksegment;
  opt.ksegment_k = 3;
  opt.observation_delay = 3;
  opt.mirrored_frames = true;
  ChatNetwork net(scatter(8, 13), opt);
  const auto msg = random_payload(3, 5);
  net.send(7, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(200'000));
  net.run(8);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, msg);
}

TEST(Combo, HeavyTrafficEveryProtocolFeature) {
  // Everything at once, synchronous flavor: unicasts in all directions,
  // a broadcast, under quantization, with eavesdropping verified.
  const std::size_t n = 6;
  const auto pts = scatter(n, 17);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.observation_quantum = 0.0005;
  ChatNetwork net(pts, opt);
  std::vector<std::vector<std::uint8_t>> msgs(n);
  for (std::size_t i = 0; i < n; ++i) {
    msgs[i] = random_payload(3, 20 + i);
    if (i % 2 == 0) {
      net.send(i, (i + 1) % n, msgs[i]);
    } else {
      net.broadcast(i, msgs[i]);
    }
  }
  ASSERT_TRUE(net.run_until_quiescent(500'000));
  net.run(4);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      const std::size_t to = (i + 1) % n;
      bool found = false;
      for (const auto& d : net.received(to)) {
        found = found || (d.from == i && d.payload == msgs[i]);
      }
      EXPECT_TRUE(found) << "unicast from " << i;
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        bool found = false;
        for (const auto& d : net.received(j)) {
          found = found || (d.broadcast && d.from == i &&
                            d.payload == msgs[i]);
        }
        EXPECT_TRUE(found) << "broadcast from " << i << " at " << j;
      }
    }
  }
  EXPECT_GT(net.engine().trace().min_separation(), 0.0);
}

TEST(Combo, AsyncDelayAndKSubsetScheduler) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.scheduler = SchedulerKind::ksubset;
  opt.subset_size = 2;
  opt.observation_delay = 1;
  opt.seed = 19;
  ChatNetwork net(scatter(3, 19), opt);
  const auto msg = random_payload(2, 6);
  net.send(2, 0, msg);
  ASSERT_TRUE(net.run_until_quiescent(5'000'000));
  net.run(512);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, msg);
}

}  // namespace
}  // namespace stig
