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

}  // namespace stig::proto
