// Naming (addressing) schemes.
//
// One-to-one communication needs the sender to designate a receiver. The
// paper gives three ways, by decreasing capability:
//
//  * identified systems — the total order on visible IDs (Section 3.2);
//  * anonymous + sense of direction — the lexicographic order on observed
//    coordinates, which all robots share because they share axes
//    (Section 3.3, after [Flocchini et al. 1999]);
//  * anonymous + chirality only — a *relative* naming per robot r: rank all
//    robots by the clockwise angle of their SEC radius from r's horizon
//    line H_r, ties broken by distance from the SEC center O
//    (Section 3.4). Every robot can recompute every other robot's relative
//    naming, which is what makes decoding possible.
//
// All functions are pure and operate on positions expressed in *any* frame
// the caller uses consistently; the constructions are invariant under
// translation, rotation and positive uniform scaling (and that invariance is
// property-tested), which is exactly why robots with different frames agree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/circle.hpp"
#include "geom/vec.hpp"
#include "sim/types.hpp"

namespace stig::proto {

/// Ranks by lexicographic position order: result[i] is the rank of
/// points[i]. Precondition: points pairwise distinct.
[[nodiscard]] std::vector<std::size_t> lex_ranks(
    std::span<const geom::Vec2> points);

/// Ranks by ascending visible id: result[i] is the rank of ids[i].
/// Precondition: ids pairwise distinct.
[[nodiscard]] std::vector<std::size_t> id_ranks(
    std::span<const sim::VisibleId> ids);

/// Direction of robot `self`'s horizon line H_self: the unit vector from the
/// SEC center O through the robot, pointing outward.
///
/// Degenerate case (robot exactly at O, where the paper leaves H_r
/// undefined): we extend the rule deterministically with a canonical
/// signature — among directions toward other robots, pick the one whose
/// clockwise-ordered view of the configuration is lexicographically
/// smallest. The rule depends only on relative angles and distance ratios,
/// so every observer computes the same direction regardless of frame.
[[nodiscard]] geom::Vec2 horizon_direction(std::span<const geom::Vec2> points,
                                           std::size_t self);

/// `horizon_direction` with the caller supplying `sec`, the smallest
/// enclosing circle of `points` (callers ranking every robot fetch it once
/// instead of once per robot).
[[nodiscard]] geom::Vec2 horizon_direction(std::span<const geom::Vec2> points,
                                           std::size_t self,
                                           const geom::Circle& sec);

/// The Section 3.4 relative naming with respect to robot `self`.
struct RelativeNaming {
  geom::Vec2 sec_center;          ///< O, center of the SEC of the points.
  geom::Vec2 reference;           ///< Unit direction of H_self.
  std::vector<std::size_t> ranks; ///< ranks[i] = rank of points[i] under
                                  ///< self's labeling (0-based, self
                                  ///< included).
};

/// Computes the relative naming of all `points` with respect to
/// `points[self]`. Precondition: points pairwise distinct, size >= 2.
[[nodiscard]] RelativeNaming relative_naming(
    std::span<const geom::Vec2> points, std::size_t self);

/// `relative_naming` with the caller supplying `sec`, the smallest
/// enclosing circle of `points`.
[[nodiscard]] RelativeNaming relative_naming(
    std::span<const geom::Vec2> points, std::size_t self,
    const geom::Circle& sec);

/// Every robot's labeling of the swarm in O(n) memory: row s, rank r.
///
/// All Section 3.4 relative labelings are one angular order around the SEC
/// center O (the *ring*), each rotated to start at its robot's horizon ray
/// H_s, so a row is a single start offset into the ring:
/// rank(s, j) = (pos[j] - start[s]) mod n. The shared namings (ids,
/// lexicographic) are the same structure with every offset 0.
///
/// Relative rows are bit-identical to `relative_naming`: two robots whose
/// ring angles differ by at least 1e-6 rad (10 angle quanta) keep their
/// order under every row's quantized keys, so each row checks only the
/// closer pairs and the pairs touching its own horizon. A row failing a
/// check (a near-tie the quantization resolves differently per row) is
/// stored explicitly.
class NamingRing {
 public:
  NamingRing() = default;

  /// One labeling shared by every row: ranks[j] is robot j's rank (as
  /// returned by `lex_ranks` or `id_ranks`).
  [[nodiscard]] static NamingRing shared(std::span<const std::size_t> ranks);

  /// The relative namings of all `points` (row s equals
  /// relative_naming(points, s, sec).ranks); references[s] receives H_s.
  /// O(n log n + n·k) for k near-tied ring neighbours. Precondition:
  /// points pairwise distinct, size >= 2.
  [[nodiscard]] static NamingRing relative(std::span<const geom::Vec2> points,
                                           const geom::Circle& sec,
                                           std::vector<geom::Vec2>& references);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Rank of robot j in row s. Preconditions: s, j < size().
  [[nodiscard]] std::size_t rank(std::size_t s, std::size_t j) const noexcept {
    const std::uint32_t st = start_[s];
    if (st >= kExplicit) [[unlikely]] {
      return explicit_[(st - kExplicit) * 2 * std::size_t{n_} + j];
    }
    const std::uint32_t p = pos_[j];
    if (p < prefix_) return p;
    return p >= st ? p - st + prefix_ : p + n_ - st;
  }

  /// Robot with rank r in row s. Preconditions: s, r < size().
  [[nodiscard]] std::size_t robot_with_rank(std::size_t s,
                                            std::size_t r) const noexcept {
    const std::uint32_t st = start_[s];
    if (st >= kExplicit) [[unlikely]] {
      return explicit_[(st - kExplicit) * 2 * std::size_t{n_} + n_ + r];
    }
    if (r < prefix_) return order_[r];
    std::size_t q = r - prefix_ + st;
    if (q >= n_) q -= n_ - prefix_;
    return order_[q];
  }

  /// Rows stored explicitly because the ring could not prove them a
  /// rotation.
  [[nodiscard]] std::size_t explicit_rows() const noexcept {
    return n_ == 0 ? 0 : explicit_.size() / (2 * std::size_t{n_});
  }

 private:
  /// start_ values at or above this mark an explicit row (index = value -
  /// kExplicit); swarms stay far below 2^31 robots.
  static constexpr std::uint32_t kExplicit = std::uint32_t{1} << 31;

  std::uint32_t n_ = 0;
  /// Robots at O (angle 0 in every row) take ranks [0, prefix_) in every
  /// row; the ring proper is positions [prefix_, n_).
  std::uint32_t prefix_ = 0;
  std::vector<std::uint32_t> order_;  ///< Ring position -> robot.
  std::vector<std::uint32_t> pos_;    ///< Robot -> ring position.
  /// Per row: ring position of rank prefix_, or kExplicit + explicit index.
  std::vector<std::uint32_t> start_;
  /// Explicit rows, each n ranks followed by its n inverse entries.
  std::vector<std::uint32_t> explicit_;
};

}  // namespace stig::proto
