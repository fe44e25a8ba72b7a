// Wireless backup: movement-signals as a fault-tolerant fallback channel.
//
// The paper's opening motivation: "in the context of robots communicating
// by means of communication (e.g., wireless), since our protocols allow
// robots to explicitly communicate even if their communication devices are
// faulty, our solution can serve as a communication backup."
//
// Scenario: a 6-robot patrol exchanges status reports over a radio that
// (a) loses 30% of messages, (b) has one robot with a dead transceiver, and
// (c) goes through a jamming window. The HybridMessenger retries nothing —
// it simply routes every radio drop through the motion channel, and every
// report still arrives.
//
//   ./build/examples/wireless_backup
#include <iostream>
#include <string>

#include "core/backup_channel.hpp"
#include "core/chat_network.hpp"
#include "core/wireless.hpp"
#include "encode/bits.hpp"
#include "sim/placement.hpp"

int main() {
  using namespace stig;

  sim::Rng rng(7);
  const std::size_t n = 6;
  const std::vector<geom::Vec2> positions = sim::scatter(rng, n, 25.0, 4.0);

  core::ChatNetworkOptions mopt;
  mopt.synchrony = core::Synchrony::synchronous;
  mopt.caps.sense_of_direction = true;  // Patrol robots have compasses.
  core::ChatNetwork motion(positions, mopt);

  core::WirelessOptions wopt;
  wopt.loss_probability = 0.3;  // Flaky environment.
  wopt.jam_from = 0;            // And jammed for the first "hour"...
  wopt.jam_until = 1;           // ...of the mission's first report round.
  core::WirelessChannel radio(n, wopt);
  radio.break_device(3);  // Robot 3's transceiver is dead.

  core::HybridMessenger hybrid(motion, radio);

  std::cout << "sending 3 rounds of all-pairs status reports over a lossy, "
               "jammed radio with one dead device...\n";
  int sent = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const std::string text = "r" + std::to_string(round) + ":" +
                                 std::to_string(i) + "->" +
                                 std::to_string(j);
        hybrid.send(i, j, encode::bytes_of(text));
        ++sent;
      }
    }
    // Flush the motion fallbacks accumulated this round.
    if (!hybrid.flush(1'000'000)) {
      std::cerr << "motion channel did not converge\n";
      return 1;
    }
    motion.run(2);
  }

  std::size_t delivered = 0;
  for (std::size_t j = 0; j < n; ++j) delivered += hybrid.received(j).size();

  const auto& st = hybrid.stats();
  std::cout << "\nattempted:            " << st.attempts << " messages\n"
            << "radio delivered:      " << st.wireless_delivered << "\n"
            << "radio dropped:        " << radio.dropped()
            << " (loss + jamming + dead device)\n"
            << "motion fallbacks:     " << st.motion_fallbacks << "\n"
            << "total delivered:      " << delivered << " / " << sent << "\n";

  if (delivered != static_cast<std::size_t>(sent)) {
    std::cerr << "LOST MESSAGES — the backup failed\n";
    return 1;
  }
  std::cout << "\nno message lost: every radio failure was recovered by "
               "the movement-signal backup channel.\n";
  return 0;
}
