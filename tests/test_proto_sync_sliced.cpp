// SyncSliced protocol tests (Sections 3.2-3.4): all three naming modes,
// concurrent senders, eavesdropping/redundancy, collision avoidance inside
// granulars, silence, flocking, and randomized property sweeps.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "fault/injector.hpp"
#include "geom/angle.hpp"
#include "geom/voronoi.hpp"
#include "obs/cov.hpp"
#include "obs/jsonl_sink.hpp"
#include "proto/sync_sliced.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::Capabilities;
using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed,
                                double extent = 30.0, double min_gap = 2.0) {
  sim::Rng rng(seed);
  std::vector<geom::Vec2> pts;
  while (pts.size() < n) {
    const geom::Vec2 p{rng.uniform(-extent, extent),
                       rng.uniform(-extent, extent)};
    bool ok = true;
    for (const geom::Vec2& q : pts) {
      if (geom::dist(p, q) < min_gap) ok = false;
    }
    if (ok) pts.push_back(p);
  }
  return pts;
}

std::vector<std::uint8_t> random_payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

ChatNetworkOptions sliced_options(bool ids, bool sod) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.visible_ids = ids;
  opt.caps.sense_of_direction = sod;
  return opt;
}

struct NamingCase {
  bool ids;
  bool sod;
  const char* name;
};

class SlicedNamingTest : public ::testing::TestWithParam<NamingCase> {};

TEST_P(SlicedNamingTest, AllPairsDeliver) {
  const NamingCase& c = GetParam();
  const std::size_t n = 5;
  ChatNetwork net(scatter(n, 77), sliced_options(c.ids, c.sod));
  // Every ordered pair exchanges a distinct message.
  std::vector<std::vector<std::vector<std::uint8_t>>> msgs(
      n, std::vector<std::vector<std::uint8_t>>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      msgs[i][j] = random_payload(2 + (i * n + j) % 5, 100 + i * n + j);
      net.send(i, j, msgs[i][j]);
    }
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000)) << c.name;
  net.run(4);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(net.received(j).size(), n - 1) << c.name;
    for (const auto& d : net.received(j)) {
      EXPECT_EQ(d.payload, msgs[d.from][j]) << c.name;
      EXPECT_EQ(d.to, j);
    }
  }
}

TEST_P(SlicedNamingTest, EverybodyOverhearsEverything) {
  const NamingCase& c = GetParam();
  const std::size_t n = 4;
  ChatNetwork net(scatter(n, 31), sliced_options(c.ids, c.sod));
  const auto msg = random_payload(6, 9);
  net.send(0, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(50'000));
  net.run(4);
  // The paper's redundancy remark: every robot can decode every message.
  for (std::size_t j = 2; j < n; ++j) {
    ASSERT_EQ(net.overheard(j).size(), 1u) << c.name << " robot " << j;
    EXPECT_EQ(net.overheard(j)[0].payload, msg);
    EXPECT_EQ(net.overheard(j)[0].from, 0u);
    EXPECT_EQ(net.overheard(j)[0].to, 1u);
  }
  // The addressee files it as received, not overheard.
  EXPECT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.overheard(1).size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Namings, SlicedNamingTest,
    ::testing::Values(NamingCase{true, true, "ids"},
                      NamingCase{false, true, "lexicographic"},
                      NamingCase{false, false, "relative"}),
    [](const auto& info) { return info.param.name; });

TEST(SyncSliced, SilentWhenIdle) {
  ChatNetwork net(scatter(6, 3), sliced_options(false, true));
  net.run(200);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(net.engine().trace().stats(i).moves, 0u) << i;
  }
}

TEST(SyncSliced, StaysInsideGranulars) {
  ChatNetworkOptions opt = sliced_options(false, true);
  opt.record_positions = true;
  const auto pts = scatter(5, 13);
  ChatNetwork net(pts, opt);
  for (std::size_t i = 0; i < 5; ++i) {
    net.send(i, (i + 2) % 5, random_payload(8, i));
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  // Collision avoidance, the strong form: every robot stayed within its
  // granular (half nearest-neighbor distance) the whole run.
  std::vector<double> radius(5);
  for (std::size_t i = 0; i < 5; ++i) {
    radius[i] = geom::granular_radius(pts, i);
  }
  for (const auto& config : net.engine().trace().positions()) {
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_LT(geom::dist(config[i], pts[i]), radius[i]);
    }
  }
  EXPECT_GT(net.engine().trace().min_separation(), 0.0);
}

TEST(SyncSliced, TwoInstantsPerBitEvenWithConcurrentSenders) {
  const std::size_t n = 6;
  ChatNetwork net(scatter(n, 5), sliced_options(false, true));
  const auto msg = random_payload(10, 3);
  const std::uint64_t frame_bits = encode::encode_frame(msg).size();
  for (std::size_t i = 0; i < n; ++i) {
    net.send(i, (i + 1) % n, msg);  // All robots send concurrently.
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  // Concurrency is free: the slowest sender still needs only 2/bit.
  EXPECT_EQ(net.engine().now(), 2 * frame_bits);
}

TEST(SyncSliced, MirroredSwarmWorks) {
  ChatNetworkOptions opt = sliced_options(false, false);
  opt.mirrored_frames = true;
  ChatNetwork net(scatter(5, 41), opt);
  const auto msg = random_payload(7, 2);
  net.send(3, 0, msg);
  ASSERT_TRUE(net.run_until_quiescent(50'000));
  net.run(4);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, msg);
}

TEST(SyncSliced, FlockingChatDrifts) {
  ChatNetworkOptions opt = sliced_options(false, true);
  opt.flock_velocity = geom::Vec2{0.05, 0.02};
  opt.sigma = 0.5;
  opt.record_positions = true;
  const auto pts = scatter(4, 19);
  ChatNetwork net(pts, opt);
  const auto msg = random_payload(12, 8);
  net.send(0, 3, msg);
  ASSERT_TRUE(net.run_until_quiescent(50'000));
  net.run(4);
  ASSERT_EQ(net.received(3).size(), 1u);
  EXPECT_EQ(net.received(3)[0].payload, msg);
  // The swarm really moved: every robot drifted by t * v.
  const auto t = static_cast<double>(net.engine().now());
  const geom::Vec2 expected_drift = opt.flock_velocity * t;
  for (std::size_t i = 0; i < 4; ++i) {
    const geom::Vec2 drift = net.engine().positions()[i] - pts[i];
    EXPECT_NEAR(geom::dist(drift, expected_drift), 0.0, 1e-6) << i;
  }
}

TEST(SyncSliced, WorksAtScale) {
  const std::size_t n = 40;
  ChatNetwork net(scatter(n, 23, 100.0, 3.0), sliced_options(false, false));
  const auto msg = random_payload(5, 77);
  net.send(0, n - 1, msg);
  net.send(n / 2, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(4);
  ASSERT_EQ(net.received(n - 1).size(), 1u);
  ASSERT_EQ(net.received(1).size(), 1u);
}

/// Hands every engine snapshot to two SyncSlicedRobots: `primary` gets it
/// as the engine built it, moved-peer list included; `shadow` gets a copy
/// with the list removed, so it always takes the full per-peer pass. The
/// primary drives the engine. After each activation every observable
/// output of the pair must agree; the first disagreement is kept.
class TeeRobot final : public sim::Robot {
 public:
  TeeRobot(const proto::SyncSlicedOptions& o, std::string* failure)
      : primary(o), shadow(o), failure_(failure) {}

  void initialize(const sim::Snapshot& snap) override {
    primary.initialize(snap);
    shadow.initialize(snap);
  }

  geom::Vec2 on_activate(const sim::Snapshot& snap) override {
    sim::Snapshot bare = snap;
    bare.moved = nullptr;
    const geom::Vec2 a = primary.on_activate(snap);
    const geom::Vec2 b = shadow.on_activate(bare);
    const std::string at = " at t=" + std::to_string(snap.t) + " robot " +
                           std::to_string(index_);
    if (std::bit_cast<std::uint64_t>(a.x) !=
            std::bit_cast<std::uint64_t>(b.x) ||
        std::bit_cast<std::uint64_t>(a.y) !=
            std::bit_cast<std::uint64_t>(b.y)) {
      fail("target" + at);
    }
    const auto same = [](const std::vector<proto::ReceivedMessage>& x,
                         const std::vector<proto::ReceivedMessage>& y) {
      if (x.size() != y.size()) return false;
      for (std::size_t k = 0; k < x.size(); ++k) {
        if (x[k].sender != y[k].sender || x[k].addressee != y[k].addressee ||
            x[k].broadcast != y[k].broadcast ||
            x[k].payload != y[k].payload) {
          return false;
        }
      }
      return true;
    };
    const auto inbox = primary.take_inbox();
    delivered += inbox.size();
    if (!same(inbox, shadow.take_inbox())) fail("inbox" + at);
    if (!same(primary.take_overheard(), shadow.take_overheard())) {
      fail("overheard" + at);
    }
    if (!(primary.stats() == shadow.stats())) fail("stats" + at);
    if (primary_events.str() != shadow_events.str()) fail("events" + at);
    primary_events.str("");
    shadow_events.str("");
    if (primary_cov->total_hits() != shadow_cov->total_hits() ||
        primary_cov->distinct_edges() != shadow_cov->distinct_edges()) {
      fail("coverage" + at);
    }
    return a;
  }

  /// Wires telemetry and coverage; `index` is the robot's engine index.
  void attach(std::size_t index, obs::cov::CovMap* pcov,
              obs::cov::CovMap* scov) {
    index_ = index;
    primary_cov = pcov;
    shadow_cov = scov;
    primary.set_telemetry(&primary_sink, index, nullptr);
    shadow.set_telemetry(&shadow_sink, index, nullptr);
    primary.set_coverage(pcov, "sliced");
    shadow.set_coverage(scov, "sliced");
  }

  proto::SyncSlicedRobot primary;
  proto::SyncSlicedRobot shadow;
  std::size_t delivered = 0;

 private:
  void fail(const std::string& what) {
    if (failure_->empty()) *failure_ = what;
  }

  std::string* failure_;
  std::size_t index_ = 0;
  std::ostringstream primary_events;
  std::ostringstream shadow_events;
  obs::JsonlEventSink primary_sink{primary_events};
  obs::JsonlEventSink shadow_sink{shadow_events};
  obs::cov::CovMap* primary_cov = nullptr;
  obs::cov::CovMap* shadow_cov = nullptr;
};

TEST(SyncSliced, MovedPeerPassMatchesFullPass) {
  // The moved-peer pass (only listed peers, plus the due resync queue)
  // against the full pass over every peer, robot by robot, over the
  // configurations where exactness is delicate: sizes on both sides of a
  // 64-slot bitmap word, all three namings, sensor quantization with
  // robots parked on the grid, observation delay, flocking, crash / stall
  // / jitter faults, teleports (one swapping two robots into each other's
  // granulars), every corruption target and decode faults.
  using proto::NamingMode;
  struct Case {
    std::size_t n;
    NamingMode naming;
    double quantum = 0.0;
    sim::Time delay = 0;
    bool flocking = false;
    bool faults = false;
    bool teleport = false;
    bool corrupt = false;
    bool decode_fault = false;
    double visibility = 0.0;  ///< Positive: the engine makes no lists.
  };
  const NamingMode lex = NamingMode::lexicographic;
  const NamingMode rel = NamingMode::relative;
  const NamingMode ids = NamingMode::by_ids;
  const std::vector<Case> cases = {
      {64, lex}, {65, rel}, {200, ids}, {200, rel}, {200, lex},
      {64, lex, 1e-3}, {65, rel, 0.0, 1}, {64, ids, 0.0, 2},
      {64, rel, 0.0, 0, true},
      {65, rel, 0.0, 0, false, true}, {200, lex, 0.0, 0, false, true},
      {64, rel, 0.0, 0, false, false, true},
      {200, ids, 0.0, 0, false, false, true},
      {64, lex, 0.0, 0, false, false, false, true},
      {65, rel, 0.0, 0, false, false, false, true},
      {64, rel, 0.0, 0, false, false, false, false, true},
      {200, lex, 0.0, 1, false, true, false, false, true},
      {64, rel, 0.0, 0, false, false, false, false, false, 1e9}};
  proto::SlicedPassCounts total;
  std::uint64_t seed = 0;
  for (const Case& c : cases) {
    ++seed;
    const std::size_t n = c.n;
    const bool parked = c.quantum > 0.0;
    std::string where = "n=" + std::to_string(n) + " naming=" +
                        std::to_string(static_cast<int>(c.naming)) +
                        " q=" + std::to_string(c.quantum) +
                        " delay=" + std::to_string(c.delay) +
                        (c.flocking ? " flocking" : "") +
                        (c.faults ? " faults" : "") +
                        (c.teleport ? " teleport" : "") +
                        (c.corrupt ? " corrupt" : "") +
                        (c.decode_fault ? " decode_fault" : "") +
                        (c.visibility > 0.0 ? " visibility" : "");
    // A jittered spacing-3 grid; parked robots sit exactly on the
    // quantization grid, in identity frames, so quantization is exact at
    // rest and only signals are snapped.
    sim::Rng rng(1000 + seed);
    const std::size_t side = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    const double sigma = 0.25;
    const geom::Vec2 flock{0.01, 0.004};
    std::vector<sim::RobotSpec> specs;
    std::vector<proto::SyncSlicedOptions> options;
    for (std::size_t i = 0; i < n; ++i) {
      sim::RobotSpec s;
      s.position = geom::Vec2{
          static_cast<double>(i % side) * 3.0 + rng.uniform(-0.5, 0.5),
          static_cast<double>(i / side) * 3.0 + rng.uniform(-0.5, 0.5)};
      if (parked) {
        s.position = geom::Vec2{std::round(s.position.x / c.quantum) *
                                    c.quantum,
                                std::round(s.position.y / c.quantum) *
                                    c.quantum};
      } else {
        s.frame_unit = rng.uniform(0.5, 2.0);
        if (c.naming == rel) s.frame_rotation = rng.uniform(0.0, 6.28);
      }
      if (c.naming == ids) s.id = static_cast<sim::VisibleId>(1000 + 7 * i);
      s.sigma = sigma;
      specs.push_back(s);
      proto::SyncSlicedOptions o;
      o.naming = c.naming;
      o.sigma_local = sigma / s.frame_unit;
      if (c.flocking) {
        o.flock_velocity =
            sim::Frame(geom::Vec2{0, 0}, s.frame_rotation, s.frame_unit,
                       s.frame_mirrored)
                .to_local(flock);
      }
      options.push_back(o);
    }
    std::string failure;
    std::vector<TeeRobot*> tees;
    std::vector<std::unique_ptr<sim::Robot>> programs;
    for (std::size_t i = 0; i < n; ++i) {
      auto tee = std::make_unique<TeeRobot>(options[i], &failure);
      tees.push_back(tee.get());
      programs.push_back(std::move(tee));
    }
    sim::EngineOptions eopt;
    eopt.observation_quantum = c.quantum;
    eopt.observation_delay = c.delay;
    eopt.visibility_radius = c.visibility;
    eopt.check_collisions = false;
    sim::Engine engine(specs, std::move(programs),
                       std::make_unique<sim::SynchronousScheduler>(), eopt);
    auto primary_cov = std::make_unique<obs::cov::CovMap>();
    auto shadow_cov = std::make_unique<obs::cov::CovMap>();
    for (std::size_t i = 0; i < n; ++i) {
      tees[i]->attach(i, primary_cov.get(), shadow_cov.get());
    }
    const auto both = [&](std::size_t i, const auto& f) {
      f(tees[i]->primary);
      f(tees[i]->shadow);
    };

    // Twelve concurrent 2-byte unicasts and one broadcast.
    std::vector<std::size_t> senders;
    for (std::size_t k = 0; k < 13; ++k) senders.push_back((k * 37 + 5) % n);
    for (std::size_t k = 0; k < 12; ++k) {
      const std::size_t from = senders[k];
      const std::size_t self_slot = tees[from]->primary.self_slot();
      const std::size_t to = (self_slot + 1 + rng.uniform_int(0, n - 2)) % n;
      const auto payload = random_payload(2, seed * 100 + k);
      both(from, [&](proto::SyncSlicedRobot& r) {
        r.send_message(to, payload);
      });
    }
    const auto shout = random_payload(1, seed);
    both(senders[12],
         [&](proto::SyncSlicedRobot& r) { r.send_broadcast(shout); });
    if (c.decode_fault) {
      for (std::size_t i = 0; i < n; i += 7) {
        both(i, [&](proto::SyncSlicedRobot& r) {
          r.inject_decode_fault(3 + i % 11, 1 + i % 3);
        });
      }
    }

    fault::FaultPlan plan;
    std::size_t swap_a = 0;
    std::size_t swap_b = 1;
    if (c.faults) {
      plan.crashes.push_back({senders[0], 21});
      plan.stalls.push_back({senders[1], 10, 2});
      plan.stalls.push_back({senders[2], 13, 3});
      plan.stalls.push_back({senders[3], 16, 4});
      plan.stalls.push_back({senders[4], 31, 3});
      plan.jitters.push_back({senders[5], 25, 100, -60});
      plan.jitters.push_back({7, 40, -30, 90});
    }
    if (c.teleport) {
      // The mutually nearest pair: each lands deep inside the other's
      // granular, and both crash there, so the swap persists.
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          const double d = geom::dist(specs[i].position, specs[j].position);
          if (d < best) {
            best = d;
            swap_a = i;
            swap_b = j;
          }
        }
      }
      plan.crashes.push_back({swap_a, 30});
      plan.crashes.push_back({swap_b, 30});
    }
    fault::FaultInjector injector(plan);
    if (!plan.empty()) engine.set_step_interceptor(&injector);

    for (sim::Time t = 0; t < 150; ++t) {
      if (c.teleport && t == 30) {
        const geom::Vec2 a = specs[swap_a].position;
        const geom::Vec2 b = specs[swap_b].position;
        const geom::Vec2 u = (b - a) * (0.15 / geom::dist(a, b));
        const geom::Vec2 perp{-u.y, u.x};
        engine.teleport(swap_a, b + perp);
        engine.teleport(swap_b, a - perp);
      }
      if (c.teleport && t == 45) {
        // A small shove that stays deep inside the robot's own granular.
        const std::size_t r = (swap_a + 3) % n;
        engine.teleport(r, engine.positions()[r] + geom::Vec2{0.2, -0.1});
      }
      if (c.corrupt && t == 20) {
        for (std::size_t i = 0; i < n; ++i) {
          both(i, [](proto::SyncSlicedRobot& r) { r.arm_stabilization(); });
        }
        const proto::CorruptKind kinds[] = {
            proto::CorruptKind::phase, proto::CorruptKind::cursor,
            proto::CorruptKind::parser, proto::CorruptKind::naming};
        for (std::size_t k = 0; k < 4; ++k) {
          const std::uint64_t garbage = 0x9E3779B97F4A7C15ULL * (k + seed);
          both(senders[k], [&](proto::SyncSlicedRobot& r) {
            r.corrupt_state(kinds[k], garbage);
          });
        }
      }
      engine.step();
      if (!failure.empty()) break;
    }
    EXPECT_EQ(failure, "") << where;
    EXPECT_EQ(primary_cov->render_json("x"), shadow_cov->render_json("x"))
        << where;
    std::size_t delivered = 0;
    for (const TeeRobot* tee : tees) {
      delivered += tee->delivered;
      const proto::SlicedPassCounts p = tee->primary.pass_counts();
      total.moved += p.moved;
      total.no_list += p.no_list;
      total.armed += p.armed;
      total.flocking += p.flocking;
      total.incoherent += p.incoherent;
      total.not_deep += p.not_deep;
    }
    EXPECT_GT(delivered, 0u) << where;
  }
  // The moved-peer pass and every fallback were reached.
  EXPECT_GT(total.moved, 0u);
  EXPECT_GT(total.no_list, 0u);
  EXPECT_GT(total.armed, 0u);
  EXPECT_GT(total.flocking, 0u);
  EXPECT_GT(total.incoherent, 0u);
  EXPECT_GT(total.not_deep, 0u);
}

// Property sweep over swarm sizes and seeds: random sender/receiver pairs.
class SlicedPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(SlicedPropertyTest, RandomPairsDeliver) {
  const auto [n, sod] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ChatNetworkOptions opt = sliced_options(false, sod);
    opt.seed = seed;
    sim::Rng rng(seed * 51);
    ChatNetwork net(scatter(n, seed * 7 + n), opt);
    const std::size_t sender = rng.uniform_int(0, n - 1);
    std::size_t receiver;
    do {
      receiver = rng.uniform_int(0, n - 1);
    } while (receiver == sender);
    const auto msg = random_payload(1 + seed % 9, seed);
    net.send(sender, receiver, msg);
    ASSERT_TRUE(net.run_until_quiescent(50'000))
        << "n=" << n << " seed=" << seed;
    net.run(4);
    ASSERT_EQ(net.received(receiver).size(), 1u)
        << "n=" << n << " seed=" << seed;
    EXPECT_EQ(net.received(receiver)[0].payload, msg);
    EXPECT_EQ(net.received(receiver)[0].from, sender);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlicedPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 4, 8, 16, 32),
                       ::testing::Bool()));

}  // namespace
}  // namespace stig
