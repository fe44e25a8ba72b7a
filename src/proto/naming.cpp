#include "proto/naming.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "geom/angle.hpp"
#include "geom/geom_cache.hpp"
#include "geom/sec.hpp"

namespace stig::proto {
namespace {

/// Quantum for angle comparisons: two radii whose angular difference is
/// below this are "the same radius" (paper: robots on one radius are ordered
/// by distance from O). Far below any genuine angular separation between
/// distinct radii in the simulations, far above cross-frame rounding noise.
constexpr double kAngleQuantum = 1e-7;

[[nodiscard]] long long quantize(double v, double quantum) noexcept {
  return static_cast<long long>(std::llround(v / quantum));
}

}  // namespace

std::vector<std::size_t> lex_ranks(std::span<const geom::Vec2> points) {
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              return points[a] < points[b];
            });
  std::vector<std::size_t> ranks(points.size());
  for (std::size_t r = 0; r < order.size(); ++r) ranks[order[r]] = r;
  return ranks;
}

std::vector<std::size_t> id_ranks(std::span<const sim::VisibleId> ids) {
  std::vector<std::size_t> order(ids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
  std::vector<std::size_t> ranks(ids.size());
  for (std::size_t r = 0; r < order.size(); ++r) ranks[order[r]] = r;
  return ranks;
}

geom::Vec2 horizon_direction(std::span<const geom::Vec2> points,
                             std::size_t self) {
  assert(points.size() >= 2);
  // Memoized: every robot's labeling pass asks for the SEC of the same t0
  // configuration; the cache turns n^2 Welzl runs per swarm into one.
  return horizon_direction(points, self, geom::cached_sec(points));
}

geom::Vec2 horizon_direction(std::span<const geom::Vec2> points,
                             std::size_t self, const geom::Circle& sec) {
  assert(points.size() >= 2);
  const geom::Vec2 off = points[self] - sec.center;
  // Scale-aware degeneracy threshold: "at the center" relative to the SEC
  // radius, so the rule is unit-independent.
  if (off.norm() > 1e-9 * std::max(sec.radius, 1e-300)) {
    return off.normalized();
  }

  // Degenerate case: robot exactly at O. Canonical frame-invariant rule —
  // score every direction toward another robot by the clockwise-ordered
  // signature of the whole configuration and pick the smallest.
  double max_d = 0.0;
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (j == self) continue;
    max_d = std::max(max_d, geom::dist(points[self], points[j]));
  }
  using Signature = std::vector<std::pair<long long, long long>>;
  std::size_t best = points.size();
  Signature best_sig;
  for (std::size_t c = 0; c < points.size(); ++c) {
    if (c == self) continue;
    const geom::Vec2 dir = (points[c] - points[self]).normalized();
    Signature sig;
    sig.reserve(points.size() - 1);
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j == self) continue;
      const geom::Vec2 rel = points[j] - points[self];
      sig.emplace_back(quantize(geom::clockwise_angle(dir, rel),
                                kAngleQuantum),
                       quantize(rel.norm() / max_d, kAngleQuantum));
    }
    std::sort(sig.begin(), sig.end());
    if (best == points.size() || sig < best_sig) {
      best = c;
      best_sig = std::move(sig);
    }
  }
  return (points[best] - points[self]).normalized();
}

RelativeNaming relative_naming(std::span<const geom::Vec2> points,
                               std::size_t self) {
  assert(points.size() >= 2);
  return relative_naming(points, self, geom::cached_sec(points));
}

RelativeNaming relative_naming(std::span<const geom::Vec2> points,
                               std::size_t self, const geom::Circle& sec) {
  assert(points.size() >= 2);
  RelativeNaming naming;
  naming.sec_center = sec.center;
  naming.reference = horizon_direction(points, self, sec);

  // Sort key per robot: (clockwise angle of its SEC radius from H_self,
  // distance from O). A robot exactly at O has no radius; it precedes
  // everything on the H_self radius (angle 0, distance 0).
  struct Key {
    long long angle;
    double radial;
    std::size_t index;
  };
  std::vector<Key> keys;
  keys.reserve(points.size());
  for (std::size_t j = 0; j < points.size(); ++j) {
    const geom::Vec2 rel = points[j] - sec.center;
    const double radial = rel.norm();
    const double angle =
        radial > 1e-9 * std::max(sec.radius, 1e-300)
            ? geom::clockwise_angle(naming.reference, rel)
            : 0.0;
    // A radius at clockwise angle ~2*pi is the H_self radius itself.
    long long qa = quantize(angle, kAngleQuantum);
    const long long full_turn = quantize(geom::kTwoPi, kAngleQuantum);
    if (qa >= full_turn) qa = 0;
    keys.push_back(Key{qa, radial, j});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.angle != b.angle) return a.angle < b.angle;
    if (a.radial != b.radial) return a.radial < b.radial;
    return a.index < b.index;
  });
  naming.ranks.assign(points.size(), 0);
  for (std::size_t r = 0; r < keys.size(); ++r) {
    naming.ranks[keys[r].index] = r;
  }
  return naming;
}

}  // namespace stig::proto
