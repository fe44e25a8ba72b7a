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
    return centers_.at(i);
  }

  /// Granular of robot `i`, sliced with `i`'s reference direction.
  [[nodiscard]] const geom::Granular& granular(std::size_t i) const {
    return granulars_.at(i);
  }

  /// Rank of robot `j` in robot `i`'s labeling.
  [[nodiscard]] std::size_t rank(std::size_t i, std::size_t j) const {
    return ranks_.at(row(i) + check_index(j));
  }

  /// Robot whose rank in `i`'s labeling is `r`.
  [[nodiscard]] std::size_t robot_with_rank(std::size_t i,
                                            std::size_t r) const {
    return inverse_ranks_.at(row(i) + check_index(r));
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
  /// allocates nothing in steady state.
  void associate_into(const sim::Snapshot& snap,
                      std::vector<geom::Vec2>& out) const;

  /// Classifies robot `i`'s current position against its granular slicing.
  /// Returns nullopt when the robot is at (indistinguishable from) its
  /// center. A genuine signal has negligible angular error; fixes whose
  /// error exceeds a quarter slice are rejected as noise.
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
  /// one entry of each rank table with an in-domain garbage value. The
  /// envelope is type-preserving on purpose: a rank slot holds *some*
  /// rank, so the corruption silently misroutes signals — the interesting
  /// failure — instead of tripping a bounds check (fail-stop, which needs
  /// no stabilization). May be vacuous when the garbage equals the stored
  /// value; the audit then finds nothing to repair.
  void scramble_naming(std::uint64_t garbage);

  /// Stabilization audit: recomputes the naming tables from the stored t0
  /// geometry (and ids), compares them to the live tables, and swaps the
  /// recomputed ones in when they differ. Returns true exactly when a
  /// repair happened — the caller must then treat all reassembly state
  /// keyed by ranks as suspect. Bit-exact no-op (but an O(n log n)
  /// recompute + allocation) on an uncorrupted core, which is why drivers
  /// only call it when stabilization is armed.
  [[nodiscard]] bool audit_naming();

 private:
  /// Computes the rank tables (and, when `references` is non-null, each
  /// robot's reference direction) from centers_/ids_/naming_. Shared by
  /// the constructor and the stabilization audit so the audit compares
  /// against exactly the construction-time derivation.
  void compute_ranks(std::vector<std::uint32_t>& ranks,
                     std::vector<std::uint32_t>& inverse,
                     std::vector<geom::Vec2>* references) const;

  /// Index of the t0 center nearest `p` (lowest index on exact ties).
  [[nodiscard]] std::size_t nearest_center(const geom::Vec2& p) const;

  [[nodiscard]] std::size_t row(std::size_t i) const {
    // Shared labelings (by_ids, lexicographic: every robot ranks every
    // robot identically) store ONE row for the whole swarm; only the
    // relative naming, which is genuinely per-observer, stores n rows.
    // Each robot holds its own core, so without sharing an n-robot swarm
    // carried n * n^2 rank entries — the memory wall that capped the
    // sliced protocols near n = 256.
    if (i >= n_) throw std::out_of_range("SlicedCore: robot index");
    return shared_ranks_ ? 0 : i * n_;
  }
  [[nodiscard]] std::size_t check_index(std::size_t j) const {
    if (j >= n_) throw std::out_of_range("SlicedCore: rank index");
    return j;
  }

  std::size_t n_ = 0;
  std::size_t self_ = 0;
  std::size_t diameters_ = 0;
  bool shared_ranks_ = false;
  NamingMode naming_ = NamingMode::lexicographic;
  std::vector<sim::VisibleId> ids_;  ///< t0 visible ids (by_ids only).
  std::vector<geom::Vec2> centers_;
  std::vector<geom::Granular> granulars_;
  /// Flat rank tables: row-major rows of length n_ (one shared row when
  /// `shared_ranks_`). uint32 halves the footprint of the old size_t
  /// nested vectors; swarms stay far below 2^32 robots.
  std::vector<std::uint32_t> ranks_;
  std::vector<std::uint32_t> inverse_ranks_;
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
