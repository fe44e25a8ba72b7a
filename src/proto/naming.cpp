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

/// Ring-angle separation (rad) beyond which the quantized relative keys of
/// two robots are ordered alike in every row: 10 angle quanta, far above
/// the ~1e-15 rad rounding between `NamingRing`'s fixed-axis angles and
/// the per-row angles of `relative_naming`.
constexpr double kRingSeparation = 1e-6;

[[nodiscard]] long long quantize(double v, double quantum) noexcept {
  return static_cast<long long>(std::llround(v / quantum));
}

/// Below this distance from O (relative to the SEC radius) a robot has no
/// radius: its angle is 0 in every labeling.
[[nodiscard]] double center_threshold(const geom::Circle& sec) noexcept {
  return 1e-9 * std::max(sec.radius, 1e-300);
}

/// Sort key of a robot in a relative labeling: (quantized clockwise angle
/// of its SEC radius from the reference, distance from O, index).
struct Key {
  long long angle;
  double radial;
  std::size_t index;

  friend bool operator<(const Key& a, const Key& b) noexcept {
    if (a.angle != b.angle) return a.angle < b.angle;
    if (a.radial != b.radial) return a.radial < b.radial;
    return a.index < b.index;
  }
};

[[nodiscard]] Key relative_key(std::span<const geom::Vec2> points,
                               std::size_t j, const geom::Circle& sec,
                               const geom::Vec2& reference) {
  const geom::Vec2 rel = points[j] - sec.center;
  const double radial = rel.norm();
  // A robot exactly at O has no radius; it precedes everything on the
  // reference radius (angle 0, distance 0).
  const double angle = radial > center_threshold(sec)
                           ? geom::clockwise_angle(reference, rel)
                           : 0.0;
  // A radius at clockwise angle ~2*pi is the reference radius itself.
  long long qa = quantize(angle, kAngleQuantum);
  const long long full_turn = quantize(geom::kTwoPi, kAngleQuantum);
  if (qa >= full_turn) qa = 0;
  return Key{qa, radial, j};
}

/// Ranks of all `points` under the relative labeling with reference
/// direction `reference`: the single-row definition of Section 3.4.
[[nodiscard]] std::vector<std::size_t> relative_ranks(
    std::span<const geom::Vec2> points, const geom::Circle& sec,
    const geom::Vec2& reference) {
  std::vector<Key> keys;
  keys.reserve(points.size());
  for (std::size_t j = 0; j < points.size(); ++j) {
    keys.push_back(relative_key(points, j, sec, reference));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::size_t> ranks(points.size());
  for (std::size_t r = 0; r < keys.size(); ++r) ranks[keys[r].index] = r;
  return ranks;
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
  if (off.norm() > center_threshold(sec)) {
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

  naming.ranks = relative_ranks(points, sec, naming.reference);
  return naming;
}

NamingRing NamingRing::shared(std::span<const std::size_t> ranks) {
  NamingRing ring;
  ring.n_ = static_cast<std::uint32_t>(ranks.size());
  ring.order_.resize(ranks.size());
  ring.pos_.resize(ranks.size());
  for (std::size_t j = 0; j < ranks.size(); ++j) {
    ring.pos_[j] = static_cast<std::uint32_t>(ranks[j]);
    ring.order_[ranks[j]] = static_cast<std::uint32_t>(j);
  }
  ring.start_.assign(ranks.size(), 0);
  return ring;
}

NamingRing NamingRing::relative(std::span<const geom::Vec2> points,
                                const geom::Circle& sec,
                                std::vector<geom::Vec2>& references) {
  assert(points.size() >= 2);
  const std::size_t n = points.size();
  const geom::Vec2 axis{1.0, 0.0};
  NamingRing ring;
  ring.n_ = static_cast<std::uint32_t>(n);

  // Robots at O lead every row by (distance, index); the others form the
  // ring, ordered by the clockwise angle phi of their radius from a fixed
  // axis.
  struct Slot {
    double phi;
    double radial;
    std::uint32_t robot;
  };
  std::vector<Key> prefix;
  std::vector<Slot> slots;
  slots.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const geom::Vec2 rel = points[j] - sec.center;
    const double radial = rel.norm();
    if (radial > center_threshold(sec)) {
      slots.push_back(Slot{geom::clockwise_angle(axis, rel), radial,
                           static_cast<std::uint32_t>(j)});
    } else {
      prefix.push_back(Key{0, radial, j});
    }
  }
  std::sort(prefix.begin(), prefix.end());
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.phi != b.phi ? a.phi < b.phi : a.robot < b.robot;
  });
  const std::size_t m = slots.size();

  // Cut the circle at its widest gap and unwrap phi past it, so phi rises
  // monotonically along the ring and no run of close robots straddles the
  // cut.
  double widest = geom::kTwoPi;
  if (m > 1) {
    std::size_t cut = 0;
    widest = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      const double next = k + 1 < m ? slots[k + 1].phi
                                    : slots[0].phi + geom::kTwoPi;
      if (next - slots[k].phi > widest) {
        widest = next - slots[k].phi;
        cut = (k + 1) % m;
      }
    }
    std::rotate(slots.begin(),
                slots.begin() + static_cast<std::ptrdiff_t>(cut), slots.end());
    for (std::size_t k = m - cut; k < m; ++k) slots[k].phi += geom::kTwoPi;
  }
  std::vector<double> phi(m);
  for (std::size_t k = 0; k < m; ++k) phi[k] = slots[k].phi;

  // Runs: maximal stretches of ring neighbours closer than kRingSeparation.
  // Only their inner pairs (`tight`) can order differently from row to
  // row. Inside a run the ring takes a canonical order — quantized phi,
  // then distance, then index — which is every row's order for exact rays
  // through O and for symmetric lattices.
  const auto tight_after = [&](std::size_t k) {
    return k + 1 < m && phi[k + 1] - phi[k] < kRingSeparation;
  };
  std::vector<std::size_t> tight;
  for (std::size_t a = 0; a < m;) {
    std::size_t b = a + 1;
    while (tight_after(b - 1)) ++b;
    if (b - a > 1) {
      const auto canonical = [](const Slot& s) {
        return Key{quantize(s.phi, kAngleQuantum), s.radial, s.robot};
      };
      std::sort(slots.begin() + static_cast<std::ptrdiff_t>(a),
                slots.begin() + static_cast<std::ptrdiff_t>(b),
                [&](const Slot& x, const Slot& y) {
                  return canonical(x) < canonical(y);
                });
      for (std::size_t k = a; k + 1 < b; ++k) tight.push_back(k);
    }
    a = b;
  }

  ring.prefix_ = static_cast<std::uint32_t>(prefix.size());
  ring.order_.reserve(n);
  for (const Key& k : prefix) {
    ring.order_.push_back(static_cast<std::uint32_t>(k.index));
  }
  for (const Slot& s : slots) ring.order_.push_back(s.robot);
  ring.pos_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    ring.pos_[ring.order_[p]] = static_cast<std::uint32_t>(p);
  }

  // Past n ~ 2*pi / kRingSeparation robots even the widest gap is tight and
  // the cut argument fails: every row is then stored explicitly.
  const bool rotations = m < 2 || widest >= kRingSeparation;
  references.assign(n, geom::Vec2{});
  ring.start_.assign(n, 0);
  std::vector<std::size_t> zone;
  for (std::size_t s = 0; s < n; ++s) {
    const geom::Vec2 h = horizon_direction(points, s, sec);
    references[s] = h;
    const auto key = [&](std::size_t k) {
      return relative_key(points, slots[k].robot, sec, h);
    };
    bool ok = rotations;
    std::size_t start = 0;
    if (ok && m > 1) {
      double ph = geom::clockwise_angle(axis, h);
      if (ph < phi[0]) ph += geom::kTwoPi;
      // The wrap zone: robots within kRingSeparation of H_s (on either side
      // of the cut), grown to whole runs. Outside it every robot's angle
      // from H_s lies in [sep, 2*pi - sep], so no quantized key folds.
      zone.clear();
      const auto window = [&](double lo, double hi) {
        auto a = static_cast<std::size_t>(
            std::lower_bound(phi.begin(), phi.end(), lo) - phi.begin());
        auto b = static_cast<std::size_t>(
            std::upper_bound(phi.begin(), phi.end(), hi) - phi.begin());
        if (a >= b) return;
        while (a > 0 && tight_after(a - 1)) --a;
        while (tight_after(b - 1)) ++b;
        for (std::size_t k = a; k < b; ++k) zone.push_back(k);
      };
      window(ph - kRingSeparation, ph + kRingSeparation);
      window(ph - geom::kTwoPi - kRingSeparation,
             ph - geom::kTwoPi + kRingSeparation);
      if (zone.empty()) {
        // H_s falls in a wide gap: the row starts just clockwise of it.
        start = static_cast<std::size_t>(
                    std::lower_bound(phi.begin(), phi.end(), ph) -
                    phi.begin()) %
                m;
      } else {
        start = zone.front();
        Key least = key(start);
        for (const std::size_t z : zone) {
          const Key k = key(z);
          if (k < least) {
            start = z;
            least = k;
          }
        }
      }
      // The rotation from `start` is the row iff every adjacent pair in it
      // is ordered. Pairs of different runs outside the zone are ordered
      // by separation alone: their angles from H_s differ by at least
      // 10 quanta and neither folds. Check every other pair exactly.
      const std::size_t last = (start + m - 1) % m;
      const auto ordered = [&](std::size_t k) {
        return k == last || key(k) < key((k + 1) % m);
      };
      for (const std::size_t k : tight) ok = ok && ordered(k);
      for (const std::size_t z : zone) {
        ok = ok && ordered((z + m - 1) % m) && ordered(z);
      }
    }
    if (ok) {
      ring.start_[s] = static_cast<std::uint32_t>(prefix.size() + start);
      continue;
    }
    // A near-tie the quantization orders differently in this row: store the
    // row itself.
    const std::vector<std::size_t> ranks = relative_ranks(points, sec, h);
    const std::size_t base = ring.explicit_.size();
    ring.start_[s] = kExplicit + static_cast<std::uint32_t>(base / (2 * n));
    ring.explicit_.resize(base + 2 * n);
    for (std::size_t j = 0; j < n; ++j) {
      ring.explicit_[base + j] = static_cast<std::uint32_t>(ranks[j]);
      ring.explicit_[base + n + ranks[j]] = static_cast<std::uint32_t>(j);
    }
  }
  return ring;
}

}  // namespace stig::proto
