// Rendezvous: use the motion channel to *decide*, then move to *do*.
//
// The paper frames explicit communication as the enabler for classical
// distributed tasks. This example closes the loop: the swarm first agrees
// on a meeting point purely by movement-signals (a leader is elected by
// max-token broadcast; the leader's own position is the rendezvous), then
// leaves protocol mode and navigates there, parking on a ring around the
// leader so nobody collides.
//
//   ./build/examples/rendezvous
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/chat_network.hpp"
#include "geom/angle.hpp"
#include "sim/engine.hpp"
#include "sim/placement.hpp"

namespace {

using namespace stig;

/// Phase-2 program: walk to an assigned parking spot and stay.
class ParkRobot final : public sim::Robot {
 public:
  explicit ParkRobot(geom::Vec2 target_local) : target_(target_local) {}
  void initialize(const sim::Snapshot&) override {}
  geom::Vec2 on_activate(const sim::Snapshot&) override {
    // The anchored frame makes the target a fixed local point; the engine's
    // sigma clamp turns this into a straight walk.
    return target_;
  }

 private:
  geom::Vec2 target_;
};

}  // namespace

int main() {
  sim::Rng rng(515);
  const std::size_t n = 7;
  const std::vector<geom::Vec2> start = sim::scatter(rng, n, 25.0, 4.0);

  // ---- Phase 1: decide, using movement-signals only.
  std::cout << "phase 1: elect a leader by broadcast (anonymous swarm, "
               "chirality only)\n";
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  core::ChatNetwork net(start, opt);

  std::vector<std::uint8_t> tokens(n);
  for (auto& t : tokens) {
    t = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::uint8_t> one{tokens[i]};
    net.broadcast(i, one);
  }
  if (!net.run_until_quiescent(1'000'000)) return 1;
  net.run(2);

  // Every robot independently picks the max token; the *sender* of that
  // broadcast is the leader — no coordinates ever cross the channel.
  std::size_t leader = 0;
  std::uint8_t best = tokens[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (tokens[i] > best) {
      best = tokens[i];
      leader = i;
    }
  }
  bool agree = true;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t my_best = tokens[i];
    std::size_t my_leader = i;
    for (const core::Delivery& d : net.received(i)) {
      if (d.payload[0] > my_best ||
          (d.payload[0] == my_best && d.from < my_leader)) {
        my_best = d.payload[0];
        my_leader = d.from;
      }
    }
    agree = agree && my_leader == leader;
  }
  std::cout << "leader: robot " << leader << " (token " << int{best}
            << "), all agree: " << (agree ? "yes" : "NO") << "\n\n";
  if (!agree) return 1;

  // ---- Phase 2: act. Everyone walks to a parking ring around the leader.
  std::cout << "phase 2: navigate to a ring around the leader\n";
  const auto pos_view = net.engine().positions();
  const std::vector<geom::Vec2> positions(pos_view.begin(), pos_view.end());
  const double ring = 2.5;
  std::vector<sim::RobotSpec> specs;
  std::vector<std::unique_ptr<sim::Robot>> programs;
  for (std::size_t i = 0; i < n; ++i) {
    sim::RobotSpec s;
    s.position = positions[i];
    s.sigma = 0.5;
    specs.push_back(s);
    geom::Vec2 target_global = positions[leader];
    if (i != leader) {
      const double angle =
          geom::kTwoPi * static_cast<double>(i) / static_cast<double>(n);
      target_global += geom::Vec2{ring * std::cos(angle),
                                  ring * std::sin(angle)};
    }
    // Anchored local frame with identity orientation: local target is the
    // global target relative to the start position.
    programs.push_back(
        std::make_unique<ParkRobot>(target_global - positions[i]));
  }
  sim::Engine walk(specs, std::move(programs),
                   std::make_unique<sim::SynchronousScheduler>());
  walk.run(200);

  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double want = i == leader ? 0.0 : ring;
    const double got = geom::dist(walk.positions()[i], positions[leader]);
    max_err = std::max(max_err, std::fabs(got - want));
  }
  std::cout << "all robots parked on the ring (max radial error "
            << std::scientific << std::setprecision(1) << max_err
            << "), min separation during the walk "
            << std::fixed << std::setprecision(2)
            << walk.trace().min_separation() << "\n";
  std::cout << "\nrendezvous complete: the swarm decided by chatting with "
               "its feet, then met up.\n";
  return max_err < 1e-6 ? 0 : 1;
}
