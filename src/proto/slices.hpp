// SlicedCore: the Voronoi/granular/naming substrate shared by every n-robot
// movement protocol (Sections 3.2–3.4 synchronous, 4.2 asynchronous, and the
// Section 5 k-segment extension).
//
// Built once from the t0 snapshot, it provides, in the owning robot's local
// frame:
//   * each robot's granular (largest disc centered on the robot inside its
//     Voronoi cell) sliced into a protocol-chosen number of diameters;
//   * each robot's reference direction (North with sense of direction, or
//     the horizon line H_r of the SEC-based relative naming);
//   * each robot's labeling of all robots (every observer can reconstruct
//     every sender's labeling — the property Section 3.4 relies on);
//   * association of an observed configuration back to persistent robot
//     identities (granulars are disjoint, so nearest-center is unambiguous);
//   * classification of a robot's displacement into (diameter, side).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "geom/granular.hpp"
#include "geom/point_grid.hpp"
#include "geom/vec.hpp"
#include "proto/naming.hpp"
#include "sim/robot.hpp"

namespace stig::proto {

/// Which naming scheme labels the diameters.
enum class NamingMode : unsigned char {
  by_ids,         ///< Rank of visible IDs (Section 3.2). Requires an
                  ///< identified system and sense of direction.
  lexicographic,  ///< Rank of coordinates in the shared axes (Section 3.3).
                  ///< Requires sense of direction (+ chirality).
  relative,       ///< Per-robot SEC naming (Section 3.4). Chirality only.
};

/// A movement signal: which labeled diameter, which half.
struct Signal {
  std::size_t diameter = 0;
  geom::DiameterSide side{};

  friend constexpr bool operator==(const Signal&, const Signal&) = default;
};

class SlicedCore {
 public:
  /// Displacements at or below this fraction of the granular radius read
  /// as "at the center". Signal amplitudes are >= 1e-3 of the radius by
  /// construction, and coordinate round-trip noise is ~1e-13 absolute, so
  /// the band is safe on both sides. Being radius-relative makes the
  /// threshold frame-invariant.
  static constexpr double kCenterFraction = 1e-7;

  SlicedCore() = default;

  /// Builds the substrate from the t0 snapshot.
  ///
  /// `diameter_count`: slices per granular — n for the synchronous
  /// protocols, n+1 for the asynchronous one (diameter 0 is then kappa),
  /// k+1 for the k-segment variant.
  /// Precondition for `NamingMode::by_ids`: the snapshot carries visible
  /// ids.
  SlicedCore(const sim::Snapshot& t0, NamingMode naming,
             std::size_t diameter_count);

  [[nodiscard]] std::size_t robot_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t self_index() const noexcept { return self_; }
  [[nodiscard]] std::size_t diameter_count() const noexcept {
    return diameters_;
  }

  /// t0 position of robot `i` (local frame) — its granular center.
  [[nodiscard]] const geom::Vec2& center(std::size_t i) const {
    return sites_.at(i).center;
  }

  /// Granular of robot `i`, sliced with `i`'s reference direction.
  [[nodiscard]] const geom::Granular& granular(std::size_t i) const {
    return granulars_.at(i);
  }

  /// Rank of robot `j` in robot `i`'s labeling.
  [[nodiscard]] std::size_t rank(std::size_t i, std::size_t j) const {
    check_indices(i, j);
    if (!patches_.empty()) [[unlikely]] return patched(false, i, j);
    return ring_.rank(i, j);
  }

  /// Robot whose rank in `i`'s labeling is `r`.
  [[nodiscard]] std::size_t robot_with_rank(std::size_t i,
                                            std::size_t r) const {
    check_indices(i, r);
    if (!patches_.empty()) [[unlikely]] return patched(true, i, r);
    return ring_.robot_with_rank(i, r);
  }

  /// Associates the observed configuration to persistent robot indices:
  /// result[i] is the current position of robot i. Every observed point is
  /// assigned to the granular that contains it. Each snapshot slot first
  /// tries the robot it held at the previous call (then its neighbours'),
  /// accepted only deep enough inside that granular to be the exact
  /// nearest center; other points take the full nearest-center query.
  [[nodiscard]] std::vector<geom::Vec2> associate(
      const sim::Snapshot& snap) const;

  /// `associate` into caller-owned storage (resized to robot_count();
  /// capacity reused). The per-activation hot path of the sliced drivers
  /// calls this with a driver-owned scratch vector so slice assembly
  /// allocates nothing in steady state. Every observed point is first
  /// shifted by `-shift` (the flocking drift; zero leaves it exact).
  void associate_into(const sim::Snapshot& snap, std::vector<geom::Vec2>& out,
                      const geom::Vec2& shift = {0.0, 0.0}) const;

  /// True when `p` lies strictly inside kHintFraction of granular `h`'s
  /// radius: deep enough that `h` is exactly its nearest center, so the
  /// association of any configuration assigns `p` to `h`.
  [[nodiscard]] bool deep_inside(std::size_t h, const geom::Vec2& p) const {
    return geom::dist2(p, sites_[h].center) < sites_[h].hint_r2;
  }

  /// Classifies robot `i`'s current position against its granular slicing.
  /// Returns nullopt when the robot is at (indistinguishable from) its
  /// center, i.e. within kCenterFraction of the radius. A genuine signal
  /// has negligible angular error; fixes whose error exceeds a quarter
  /// slice are rejected as noise. Points well inside the at-rest bound are
  /// answered from a squared distance, without the norm or the angle.
  [[nodiscard]] std::optional<Signal> classify(std::size_t i,
                                               const geom::Vec2& pos) const;

  /// Movement target on robot self's own granular.
  [[nodiscard]] geom::Vec2 signal_point(const Signal& s,
                                        double distance) const {
    return granulars_.at(self_).point_on(s.diameter, s.side, distance);
  }

  /// Granular radius of robot `i`.
  [[nodiscard]] double radius(std::size_t i) const {
    return granulars_.at(i).radius();
  }

  /// Transient-corruption hook (fault::CorruptTarget::naming): overwrites
  /// one entry of each labeling view — rank and inverse — with an
  /// in-domain garbage value, at the cell a flat row-major table of the
  /// labelings would hold (one row for the shared namings, n for the
  /// relative one). The envelope is type-preserving on purpose: a rank
  /// slot holds *some* rank, so the corruption silently misroutes signals
  /// — the interesting failure — instead of tripping a bounds check
  /// (fail-stop, which needs no stabilization). May be vacuous when the
  /// garbage equals the stored value; the audit then finds nothing to
  /// repair.
  void scramble_naming(std::uint64_t garbage);

  /// Stabilization audit: compares every scrambled entry against the
  /// labelings derived from the stored t0 geometry and drops the
  /// scrambles. Returns true exactly when one of them differed — the
  /// caller must then treat all reassembly state keyed by ranks as
  /// suspect. O(1) on an uncorrupted core.
  [[nodiscard]] bool audit_naming();

 private:
  /// A scrambled labeling entry: `cell` indexes the flat row-major table
  /// of the rank view (`inverse` false) or the inverse view.
  struct NamingPatch {
    bool inverse;
    std::size_t cell;
    std::uint32_t value;
  };

  /// One robot's granular as association and classification read it:
  /// its t0 position (the granular center), the squared association-hint
  /// radius (kHintFraction·R)², and the squared at-rest bound
  /// (kCenterFraction·R)²·(1 − kRestMargin), or −1 where that square
  /// would leave the normal double range (see slices.cpp).
  struct Site {
    geom::Vec2 center;
    double hint_r2;
    double rest_r2;
  };

  void check_indices(std::size_t i, std::size_t j) const {
    if (i >= n_) throw std::out_of_range("SlicedCore: robot index");
    if (j >= n_) throw std::out_of_range("SlicedCore: rank index");
  }

  /// Cell of (row i, column j) in the flat table of a labeling view:
  /// shared namings have a single row.
  [[nodiscard]] std::size_t naming_cell(std::size_t i, std::size_t j) const {
    return (naming_ == NamingMode::relative ? i * n_ : 0) + j;
  }

  /// The rank (or inverse) entry (i, j) with the scrambles applied.
  [[nodiscard]] std::size_t patched(bool inverse, std::size_t i,
                                    std::size_t j) const;

  /// Index of the t0 center nearest `p` (lowest index on exact ties).
  [[nodiscard]] std::size_t nearest_center(const geom::Vec2& p) const;

  std::size_t n_ = 0;
  std::size_t self_ = 0;
  std::size_t diameters_ = 0;
  NamingMode naming_ = NamingMode::lexicographic;
  /// Per robot, built once in the constructor.
  std::vector<Site> sites_;
  std::vector<geom::Granular> granulars_;
  /// Every robot's labeling, O(n) per core (see NamingRing).
  NamingRing ring_;
  /// Live scrambles, latest value per cell; empty outside a corruption
  /// window, so the rank lookups skip them.
  std::vector<NamingPatch> patches_;
  /// Nearest-center index for `associate_into`, built once over the t0
  /// centers for large swarms (empty below the threshold — the brute scan
  /// wins there).
  geom::PointGrid center_grid_;
  /// Scratch for `associate_into`'s taken-granular bookkeeping; mutable
  /// because association is logically const (cores are per-robot and
  /// engines are single-threaded, so no synchronization is needed).
  mutable std::vector<bool> assoc_filled_;
  /// Association hint: the robot that occupied snapshot slot k at the
  /// previous `associate_into` (identity after construction — the t0
  /// snapshot). Sized once here so steady-state association allocates
  /// nothing; mutable for the same reason as `assoc_filled_`.
  mutable std::vector<std::uint32_t> assoc_prev_;
};

}  // namespace stig::proto
