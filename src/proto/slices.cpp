#include "proto/slices.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "geom/geom_cache.hpp"

namespace stig::proto {
namespace {

/// Displacements below this fraction of the granular radius read as "at the
/// center". Signal amplitudes are >= 1e-3 of the radius by construction, and
/// coordinate round-trip noise is ~1e-13 absolute, so the band is safe on
/// both sides. Being radius-relative makes the threshold frame-invariant.
constexpr double kCenterFraction = 1e-7;

/// Swarm size at which `associate_into` switches from the brute
/// nearest-center scan to the t0-center PointGrid (same nearest index —
/// see geom/point_grid.hpp's exactness contract).
constexpr std::size_t kAssociateGridThreshold = 64;

/// Association hints are accepted strictly inside this fraction of the
/// hinted granular's radius. Radii are half the nearest-center distance, so
/// every other center is at least (2 - kHintFraction) radii away: a point
/// this deep in granular h is strictly nearest to c_h, and the full
/// nearest-center query could only have answered h.
constexpr double kHintFraction = 0.9;

}  // namespace

SlicedCore::SlicedCore(const sim::Snapshot& t0, NamingMode naming,
                       std::size_t diameter_count)
    : n_(t0.robots.size()),
      self_(t0.self),
      diameters_(diameter_count),
      naming_(naming) {
  assert(diameter_count >= 1);
  centers_.reserve(n_);
  for (const sim::ObservedRobot& r : t0.robots) {
    centers_.push_back(r.position);
  }
  if (naming == NamingMode::by_ids) {
    ids_.reserve(n_);
    for (const sim::ObservedRobot& r : t0.robots) {
      if (!r.id) {
        throw std::invalid_argument(
            "NamingMode::by_ids requires an identified system");
      }
      ids_.push_back(*r.id);
    }
  }

  shared_ranks_ = naming != NamingMode::relative;
  std::vector<geom::Vec2> references(n_);
  compute_ranks(ranks_, inverse_ranks_, &references);

  if (n_ >= kAssociateGridThreshold) {
    center_grid_.build(centers_);
  }
  // The t0 snapshot lists robot k in slot k.
  assoc_prev_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    assoc_prev_[k] = static_cast<std::uint32_t>(k);
  }

  granulars_.reserve(n_);
  // Memoized per configuration epoch: all n robots build their SlicedCore
  // from the same t0 snapshot, so one O(n^2) radii pass serves the swarm.
  const std::vector<double>& radii =
      geom::GeomCache::local().granular_radii(centers_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double r = radii[i];
    if (r <= 0.0) {
      throw std::invalid_argument("granular radius must be positive");
    }
    granulars_.emplace_back(centers_[i], r, diameters_, references[i]);
  }
}

void SlicedCore::compute_ranks(std::vector<std::uint32_t>& ranks,
                               std::vector<std::uint32_t>& inverse,
                               std::vector<geom::Vec2>* references) const {
  // Reference directions and labelings. Shared namings (by_ids,
  // lexicographic) flatten to a single row; relative naming stores one
  // row per observer.
  ranks.clear();
  ranks.reserve(shared_ranks_ ? n_ : n_ * n_);
  const auto append_row = [&ranks](const std::vector<std::size_t>& row) {
    for (const std::size_t r : row) {
      ranks.push_back(static_cast<std::uint32_t>(r));
    }
  };
  switch (naming_) {
    case NamingMode::by_ids: {
      append_row(id_ranks(ids_));
      if (references != nullptr) {
        for (std::size_t i = 0; i < n_; ++i) {
          // North (sense of direction).
          (*references)[i] = geom::Vec2{0.0, 1.0};
        }
      }
      break;
    }
    case NamingMode::lexicographic: {
      append_row(lex_ranks(centers_));
      if (references != nullptr) {
        for (std::size_t i = 0; i < n_; ++i) {
          (*references)[i] = geom::Vec2{0.0, 1.0};
        }
      }
      break;
    }
    case NamingMode::relative: {
      // One SEC lookup per core: every cache lookup hashes and compares all
      // n centers, so fetching it per robot made this loop O(n^2).
      const geom::Circle sec = geom::cached_sec(centers_);
      for (std::size_t i = 0; i < n_; ++i) {
        RelativeNaming rel = relative_naming(centers_, i, sec);
        append_row(rel.ranks);
        if (references != nullptr) (*references)[i] = rel.reference;
      }
      break;
    }
  }

  inverse.assign(ranks.size(), 0);
  const std::size_t rows = shared_ranks_ ? 1 : n_;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      inverse[i * n_ + ranks[i * n_ + j]] = static_cast<std::uint32_t>(j);
    }
  }
}

void SlicedCore::scramble_naming(std::uint64_t garbage) {
  if (ranks_.empty() || n_ == 0) return;
  ranks_[garbage % ranks_.size()] =
      static_cast<std::uint32_t>((garbage >> 8) % n_);
  inverse_ranks_[(garbage >> 16) % inverse_ranks_.size()] =
      static_cast<std::uint32_t>((garbage >> 24) % n_);
}

bool SlicedCore::audit_naming() {
  if (n_ == 0) return false;
  std::vector<std::uint32_t> ranks;
  std::vector<std::uint32_t> inverse;
  compute_ranks(ranks, inverse, nullptr);
  if (ranks == ranks_ && inverse == inverse_ranks_) return false;
  ranks_ = std::move(ranks);
  inverse_ranks_ = std::move(inverse);
  return true;
}

std::vector<geom::Vec2> SlicedCore::associate(
    const sim::Snapshot& snap) const {
  std::vector<geom::Vec2> positions;
  associate_into(snap, positions);
  return positions;
}

std::size_t SlicedCore::nearest_center(const geom::Vec2& p) const {
  // Large swarms query the t0-center grid (same nearest index as the scan —
  // lowest index on exact ties); small ones keep the brute scan.
  if (!center_grid_.empty()) return center_grid_.nearest(p);
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n_; ++i) {
    const double d2 = geom::dist2(p, centers_[i]);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

void SlicedCore::associate_into(const sim::Snapshot& snap,
                                std::vector<geom::Vec2>& out) const {
  assert(snap.robots.size() == n_);
  out.assign(n_, geom::Vec2{});
  std::vector<bool>& filled = assoc_filled_;
  filled.assign(n_, false);
  // Previous owner of slot k, or n_ (never accepted) past the last slot.
  const auto prev = [this](std::size_t k) -> std::size_t {
    return k < n_ ? assoc_prev_[k] : n_;
  };
  const auto deep_inside = [&](std::size_t h, const geom::Vec2& p) {
    if (h >= n_ || filled[h]) return false;
    const double r = kHintFraction * granulars_[h].radius();
    return geom::dist2(p, centers_[h]) < r * r;
  };
  std::size_t left = n_;  // Previous owner of slot k - 1.
  for (std::size_t k = 0; k < snap.robots.size(); ++k) {
    const geom::Vec2& p = snap.robots[k].position;
    // Nearest granular center; robots never leave their granulars, and
    // granular interiors are pairwise disjoint, so this is unambiguous.
    // Most robots sit in the slot they held last activation, or one slot
    // over when a signalling robot shifted the lexicographic order; a
    // hint deep inside its granular is exactly the nearest center, so the
    // query only runs on a miss.
    const std::size_t here = prev(k);
    const std::size_t right = prev(k + 1);
    std::size_t best;
    if (deep_inside(here, p)) {
      best = here;
    } else if (deep_inside(left, p)) {
      best = left;
    } else if (deep_inside(right, p)) {
      best = right;
    } else {
      best = nearest_center(p);
    }
    assert(!filled[best] && "two robots associated to one granular");
    assert(geom::dist2(p, centers_[best]) <=
               granulars_[best].radius() * granulars_[best].radius() &&
           "observed robot outside every granular");
    out[best] = p;
    filled[best] = true;
    left = here;
    if (k < n_) assoc_prev_[k] = static_cast<std::uint32_t>(best);
  }
}

std::optional<Signal> SlicedCore::classify(std::size_t i,
                                           const geom::Vec2& pos) const {
  const geom::Granular& g = granulars_.at(i);
  const auto fix = g.classify(pos, kCenterFraction * g.radius());
  if (!fix) return std::nullopt;
  if (fix->angular_error > g.slice_width() / 4.0) return std::nullopt;
  return Signal{fix->diameter, fix->side};
}

}  // namespace stig::proto
