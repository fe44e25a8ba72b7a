// The robot program interface and what a robot can observe.
//
// Per the SSM: an active robot observes the instantaneous configuration
// (positions of all robots, in its own local coordinate system), computes a
// destination in that local system, and moves toward it by at most sigma_r.
// Robots are non-oblivious: implementations keep whatever state they like.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/vec.hpp"
#include "sim/types.hpp"

namespace stig::sim {

/// One robot as seen by an observer.
struct ObservedRobot {
  /// Position in the observer's (anchored) local frame.
  geom::Vec2 position;
  /// Visible identifier; present only in identified systems.
  std::optional<VisibleId> id;
};

/// Smallest swarm whose observations carry moved-peer lists (see
/// `Snapshot::moved`). Below it the full per-peer pass is cheap, and the
/// engine allocates nothing for the lists.
inline constexpr std::size_t kMovedPeersMinRobots = 64;

/// A peer whose observed position may have changed since the observer's
/// previous activation (an entry of `Snapshot::moved`).
struct MovedPeer {
  /// Observed position, bit-identical to the peer's entry in `robots`.
  geom::Vec2 position;
  /// The peer's index in the snapshot this observer was initialized with
  /// (its t0 slot; for the sliced protocols, its granular index).
  std::uint32_t slot = 0;
};

/// The moved peers of one observation, ascending by slot: a view over a
/// bitmap of listed slots and a slot-indexed position array, so listing a
/// peer costs one bit and one store, and walking the list is the sort.
class MovedPeers {
 public:
  class iterator {
   public:
    [[nodiscard]] MovedPeer operator*() const {
      return MovedPeer{pos_[slot_], slot_};
    }
    iterator& operator++() {
      word_ &= word_ - 1;
      settle();
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.slot_ == b.slot_;
    }

   private:
    friend class MovedPeers;
    iterator(const MovedPeers& v, std::size_t w)
        : bits_(v.bits_), pos_(v.pos_), words_(v.words_), w_(w),
          word_(w < v.words_ ? v.bits_[w] : 0) {
      settle();
    }
    /// Moves to the lowest listed slot at or after the current word.
    void settle() {
      while (word_ == 0 && w_ < words_) {
        if (++w_ < words_) word_ = bits_[w_];
      }
      slot_ = w_ < words_ ? static_cast<std::uint32_t>(
                                64 * w_ + std::countr_zero(word_))
                          : kEnd;
    }
    static constexpr std::uint32_t kEnd = ~std::uint32_t{0};
    const std::uint64_t* bits_ = nullptr;
    const geom::Vec2* pos_ = nullptr;
    std::size_t words_ = 0;
    std::size_t w_ = 0;
    std::uint64_t word_ = 0;
    std::uint32_t slot_ = kEnd;
  };

  MovedPeers() = default;
  /// `bits`: one bit per slot (slot s is bit s % 64 of word s / 64).
  /// `pos`: observed position per slot, read for listed slots only.
  MovedPeers(const std::uint64_t* bits, std::size_t words,
             const geom::Vec2* pos)
      : bits_(bits), pos_(pos), words_(words) {}

  [[nodiscard]] iterator begin() const { return iterator(*this, 0); }
  [[nodiscard]] iterator end() const { return iterator(*this, words_); }

  /// True when slot `s` is listed. Precondition: `s` below the slot count.
  [[nodiscard]] bool contains(std::size_t s) const {
    return ((bits_[s / 64] >> (s % 64)) & 1) != 0;
  }

 private:
  const std::uint64_t* bits_ = nullptr;
  const geom::Vec2* pos_ = nullptr;
  std::size_t words_ = 0;
};

/// Everything an active robot perceives at one instant.
///
/// `robots` contains *all* robots, the observer included. In anonymous
/// systems entries are sorted lexicographically by local position so that
/// the ordering leaks no identity; in identified systems they are sorted by
/// visible id. `self` is the index of the observer's own entry — a robot can
/// always recognize itself (it knows its own position by odometry; see
/// sim/frame.hpp on anchored frames).
struct Snapshot {
  Time t = 0;
  std::vector<ObservedRobot> robots;
  std::size_t self = 0;
  /// Temporal coherence, an optional hint: when non-null, it lists every
  /// peer whose observed position may differ (bitwise) from this
  /// observer's previous observation (at its first activation, the t0
  /// snapshot it was initialized with), ascending by `slot` — a superset,
  /// so a peer left out is observed exactly where it was last time. Null
  /// below kMovedPeersMinRobots and with limited visibility. The view is
  /// of engine-owned storage, valid during the activation only.
  const MovedPeers* moved = nullptr;

  [[nodiscard]] const ObservedRobot& self_robot() const {
    return robots[self];
  }
  [[nodiscard]] std::size_t size() const noexcept { return robots.size(); }
};

/// A robot program.
///
/// The engine calls `initialize` exactly once for every robot at t0 (the
/// paper's Section 4.2 assumption that all robots know P(t0) / are awake at
/// t0), then `on_activate` at every instant the scheduler activates the
/// robot. The return value is the destination point in the robot's local
/// frame; returning the current position means "stay".
class Robot {
 public:
  Robot() = default;
  Robot(const Robot&) = delete;
  Robot& operator=(const Robot&) = delete;
  virtual ~Robot() = default;

  /// One-time preprocessing with the initial configuration P(t0).
  virtual void initialize(const Snapshot& snap) = 0;

  /// Activation: observe, compute, return destination (local frame).
  virtual geom::Vec2 on_activate(const Snapshot& snap) = 0;
};

}  // namespace stig::sim
