#include "proto/slices.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "geom/geom_cache.hpp"

namespace stig::proto {
namespace {

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

/// Relative margin of the squared at-rest bound. With lo = kCenterFraction·R
/// (the double `Granular::classify` compares against), the rounded
/// dx² + dy² is within a few ulp of |d|², the bound's own two roundings add
/// two more, and `hypot` is within 1 ulp of |d|. So a rounded dx² + dy² at
/// or below lo²·(1 − kRestMargin) proves hypot(d) <= lo, the exact "at the
/// center" answer, with over a million ulp to spare. Points between the
/// two bounds take the exact path.
constexpr double kRestMargin = 1e-9;

}  // namespace

SlicedCore::SlicedCore(const sim::Snapshot& t0, NamingMode naming,
                       std::size_t diameter_count)
    : n_(t0.robots.size()),
      self_(t0.self),
      diameters_(diameter_count),
      naming_(naming) {
  assert(diameter_count >= 1);
  std::vector<geom::Vec2> centers;
  centers.reserve(n_);
  for (const sim::ObservedRobot& r : t0.robots) {
    centers.push_back(r.position);
  }
  // Reference directions: North (sense of direction) for the shared
  // namings, the horizon line H_i for the relative one.
  std::vector<geom::Vec2> references(n_, geom::Vec2{0.0, 1.0});
  switch (naming) {
    case NamingMode::by_ids: {
      std::vector<sim::VisibleId> ids;
      ids.reserve(n_);
      for (const sim::ObservedRobot& r : t0.robots) {
        if (!r.id) {
          throw std::invalid_argument(
              "NamingMode::by_ids requires an identified system");
        }
        ids.push_back(*r.id);
      }
      ring_ = NamingRing::shared(id_ranks(ids));
      break;
    }
    case NamingMode::lexicographic:
      ring_ = NamingRing::shared(lex_ranks(centers));
      break;
    case NamingMode::relative:
      ring_ = NamingRing::relative(centers, geom::cached_sec(centers),
                                   references);
      break;
  }

  if (n_ >= kAssociateGridThreshold) {
    center_grid_.build(centers);
  }
  // The t0 snapshot lists robot k in slot k.
  assoc_prev_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    assoc_prev_[k] = static_cast<std::uint32_t>(k);
  }

  granulars_.reserve(n_);
  sites_.reserve(n_);
  // Memoized per configuration epoch: all n robots build their SlicedCore
  // from the same t0 snapshot, so one O(n^2) radii pass serves the swarm.
  const std::vector<double>& radii =
      geom::GeomCache::local().granular_radii(centers);
  for (std::size_t i = 0; i < n_; ++i) {
    const double r = radii[i];
    if (r <= 0.0) {
      throw std::invalid_argument("granular radius must be positive");
    }
    granulars_.emplace_back(centers[i], r, diameters_, references[i]);
    const double hint = kHintFraction * r;
    const double lo = kCenterFraction * r;
    // Outside the normal range the squares lose their relative accuracy
    // (underflow) or every point would pass (overflow): no early-out.
    double rest = lo * lo * (1.0 - kRestMargin);
    if (!(rest >= std::numeric_limits<double>::min() &&
          rest <= std::numeric_limits<double>::max())) {
      rest = -1.0;
    }
    sites_.push_back(Site{centers[i], hint * hint, rest});
  }
}

void SlicedCore::scramble_naming(std::uint64_t garbage) {
  if (n_ == 0) return;
  const std::size_t rows = naming_ == NamingMode::relative ? n_ : 1;
  const std::size_t cells = rows * n_;
  const auto patch = [this](bool inverse, std::size_t cell,
                            std::uint64_t value) {
    const auto v = static_cast<std::uint32_t>(value % n_);
    for (NamingPatch& p : patches_) {
      if (p.inverse == inverse && p.cell == cell) {
        p.value = v;
        return;
      }
    }
    patches_.push_back(NamingPatch{inverse, cell, v});
  };
  patch(false, garbage % cells, garbage >> 8);
  patch(true, (garbage >> 16) % cells, garbage >> 24);
}

std::size_t SlicedCore::patched(bool inverse, std::size_t i,
                                std::size_t j) const {
  const std::size_t cell = naming_cell(i, j);
  for (const NamingPatch& p : patches_) {
    if (p.inverse == inverse && p.cell == cell) return p.value;
  }
  return inverse ? ring_.robot_with_rank(i, j) : ring_.rank(i, j);
}

bool SlicedCore::audit_naming() {
  bool repaired = false;
  for (const NamingPatch& p : patches_) {
    // Shared namings have one row, which every robot's row equals.
    const std::size_t i = p.cell / n_;
    const std::size_t j = p.cell % n_;
    const std::size_t stored =
        p.inverse ? ring_.robot_with_rank(i, j) : ring_.rank(i, j);
    repaired = repaired || p.value != stored;
  }
  patches_.clear();
  return repaired;
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
    const double d2 = geom::dist2(p, sites_[i].center);
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
    return geom::dist2(p, sites_[h].center) < sites_[h].hint_r2;
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
    // A point outside granular `best` is a transient fault, reported by the
    // watchdog's granular-containment invariant.
    out[best] = p;
    filled[best] = true;
    left = here;
    if (k < n_) assoc_prev_[k] = static_cast<std::uint32_t>(best);
  }
}

std::optional<Signal> SlicedCore::classify(std::size_t i,
                                           const geom::Vec2& pos) const {
  const geom::Granular& g = granulars_.at(i);
  // Most observed robots rest at their centers: answer those without the
  // norm and the angle (kRestMargin's argument makes this exact).
  if (geom::dist2(pos, sites_[i].center) <= sites_[i].rest_r2) {
    return std::nullopt;
  }
  const auto fix = g.classify(pos, kCenterFraction * g.radius());
  if (!fix) return std::nullopt;
  if (fix->angular_error > g.slice_width() / 4.0) return std::nullopt;
  return Signal{fix->diameter, fix->side};
}

}  // namespace stig::proto
