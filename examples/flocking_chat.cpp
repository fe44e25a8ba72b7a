// Flocking chat: communicate while the swarm travels (Section 5 remark).
//
// "Note that the robots may decide to flock in a certain direction,
// subtracting the agreed upon global flocking movement in order to preserve
// the relative movements used for communication."
//
// Scenario: a convoy of 5 robots flocks North-East at constant velocity
// while continuously exchanging waypoint updates. Receivers subtract the
// agreed drift before decoding, so the movement-signals survive the travel.
//
//   ./build/examples/flocking_chat
#include <iomanip>
#include <iostream>
#include <string>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "sim/placement.hpp"

int main() {
  using namespace stig;

  sim::Rng rng(99);
  const std::size_t n = 5;
  const std::vector<geom::Vec2> start = sim::scatter(rng, n, 15.0, 4.0);

  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  opt.caps.sense_of_direction = true;  // The flock heading is agreed on.
  opt.flock_velocity = geom::Vec2{0.08, 0.05};
  opt.sigma = 0.6;  // Must cover drift + signal amplitude per instant.
  core::ChatNetwork net(start, opt);

  std::cout << "convoy of " << n << " robots flocking at ("
            << opt.flock_velocity.x << ", " << opt.flock_velocity.y
            << ") per instant while chatting\n\n";

  // A rolling conversation: the lead robot (0) streams waypoints to each
  // follower; followers acknowledge.
  for (std::size_t i = 1; i < n; ++i) {
    const std::string wp =
        "waypoint-" + std::to_string(100 + 10 * i) + "N";
    net.send(0, i, encode::bytes_of(wp));
    net.send(i, 0, encode::bytes_of("ack-" + std::to_string(i)));
  }
  if (!net.run_until_quiescent(1'000'000)) {
    std::cerr << "did not converge\n";
    return 1;
  }
  net.run(2);

  std::size_t delivered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const core::Delivery& d : net.received(i)) {
      std::cout << "robot " << d.to << " <- robot " << d.from << ": \""
                << std::string(d.payload.begin(), d.payload.end()) << "\"\n";
      ++delivered;
    }
  }

  const double t = static_cast<double>(net.engine().now());
  std::cout << "\nmessages delivered: " << delivered << " in "
            << net.engine().now() << " instants\n";
  std::cout << "convoy displacement while chatting:\n";
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec2 drift = net.engine().positions()[i] - start[i];
    std::cout << "  robot " << i << ": (" << std::fixed
              << std::setprecision(2) << drift.x << ", " << drift.y
              << ")  [expected (" << opt.flock_velocity.x * t << ", "
              << opt.flock_velocity.y * t << ")]\n";
  }
  std::cout << "the flock moved as one body and no signal was lost.\n";
  return delivered == 2 * (n - 1) ? 0 : 1;
}
