// Synchronous one-to-one communication for n >= 2 robots
// (Sections 3.2, 3.3 and 3.4 — the naming mode selects which).
//
// Preprocessing at t0 builds the Voronoi/granular substrate. To send a bit
// to the robot of rank d, the sender moves from its granular center out on
// the diameter labeled d — Northern/Eastern side for 0, Southern/Western for
// 1 — and returns to the center on the next step: two steps per bit. The
// protocol is *silent*: a robot with nothing to send does not move.
//
// Precondition: a synchronous scheduler (every robot active each instant);
// that is what makes every movement observed by everyone, so no
// acknowledgment is needed.
//
// The class also implements the Section 5 flocking remark: an optional
// common drift velocity is added to every move and subtracted before
// decoding, so the swarm travels while chatting.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "proto/common.hpp"
#include "proto/slices.hpp"

namespace stig::proto {

/// Configuration for SyncSlicedRobot.
struct SyncSlicedOptions {
  NamingMode naming = NamingMode::lexicographic;
  /// The robot's own maximum per-activation travel, in its local units.
  double sigma_local = 1.0;
  /// Fraction of the granular radius used as signal amplitude.
  double amplitude_fraction = 0.45;
  /// Common flocking velocity (local units per instant). Must be the same
  /// global vector for every robot (the "agreed upon global flocking
  /// movement"); zero disables flocking. With flocking enabled the protocol
  /// is no longer silent.
  geom::Vec2 flock_velocity{0.0, 0.0};
};

/// How often each path of SyncSlicedRobot's per-peer pass ran: the
/// moved-peer pass, or the full pass and why.
struct SlicedPassCounts {
  std::uint64_t moved = 0;       ///< Moved-peer pass.
  std::uint64_t no_list = 0;     ///< Full: the snapshot carried no list.
  std::uint64_t armed = 0;       ///< Full: stabilization is armed.
  std::uint64_t flocking = 0;    ///< Full: flocking shifts every robot.
  std::uint64_t incoherent = 0;  ///< Full: a point was not deep inside
                                 ///< its own granular before this
                                 ///< activation's updates (or no pass
                                 ///< has recorded the points yet).
  std::uint64_t not_deep = 0;    ///< Full: a listed point (or this
                                 ///< robot's own) is not deep inside
                                 ///< its own granular.
};

class SyncSlicedRobot final : public ChatRobot {
 public:
  explicit SyncSlicedRobot(SyncSlicedOptions options);
  ~SyncSlicedRobot() override;

  void initialize(const sim::Snapshot& snap) override;
  geom::Vec2 on_activate(const sim::Snapshot& snap) override;

  /// Slots are ranks in this robot's own labeling.
  [[nodiscard]] std::size_t self_slot() const override {
    return core_.rank(core_.self_index(), core_.self_index());
  }
  [[nodiscard]] std::size_t slot_count() const override {
    return core_.robot_count();
  }

  [[nodiscard]] std::size_t slot_of_t0_index(std::size_t i) const override {
    return core_.rank(core_.self_index(), i);
  }

  [[nodiscard]] const SlicedCore& core() const noexcept { return core_; }

  /// Which per-peer pass each activation took; all zero below
  /// sim::kMovedPeersMinRobots, where no moved-peer lists exist.
  [[nodiscard]] SlicedPassCounts pass_counts() const;

 protected:
  void corrupt_protocol_state(CorruptKind kind,
                              std::uint64_t garbage) override;

 private:
  [[nodiscard]] geom::Vec2 drift_at(std::uint64_t t) const {
    return options_.flock_velocity * static_cast<double>(t);
  }
  [[nodiscard]] double drift_speed() const {
    return options_.flock_velocity.norm();
  }

  struct MovedPass;

  /// The per-peer decode pass over exactly the peers `snap.moved` lists,
  /// plus those whose resync counters still tick. Returns false, having
  /// decoded nothing, when it cannot match the full pass exactly.
  bool decode_moved(const sim::Snapshot& snap);
  /// The full pass over every peer: associate, classify, decode.
  void decode_all(const sim::Snapshot& snap, const geom::Vec2& drift);
  /// One peer's decode and resync step, shared by both passes.
  void update_peer(std::size_t j, const std::optional<Signal>& signal);

  SyncSlicedOptions options_;
  SlicedCore core_;
  std::uint64_t step_ = 0;          ///< Own activation count (== global t in
                                    ///< a synchronous system).
  bool displaced_ = false;          ///< Mid-bit: next move returns to center.
  std::vector<bool> peer_was_off_;  ///< Decoder edge detector per robot.
  std::vector<std::uint8_t> peer_idle_;  ///< Consecutive at-center
                                         ///< observations, for stream
                                         ///< resynchronization.
  /// Associated positions, reused so slice assembly allocates nothing.
  /// Between activations it holds every robot's last observed point,
  /// which the moved-peer pass updates in place.
  std::vector<geom::Vec2> pos_scratch_;
  /// Moved-peer pass state; null below sim::kMovedPeersMinRobots.
  std::unique_ptr<MovedPass> moved_;
};

}  // namespace stig::proto
