#include "sim/placement.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace stig::sim {

std::vector<geom::Vec2> scatter(Rng& rng, std::size_t n, double extent,
                                double min_gap) {
  std::vector<geom::Vec2> pts;
  const std::uint64_t budget = 1000 * std::uint64_t{n} + 100'000;
  for (std::uint64_t attempt = 0; pts.size() < n; ++attempt) {
    if (attempt == budget) {
      throw std::invalid_argument("could not place " + std::to_string(n) +
                                  " robots (attempt budget exhausted)");
    }
    const geom::Vec2 p{rng.uniform(-extent, extent),
                       rng.uniform(-extent, extent)};
    const bool ok = std::none_of(pts.begin(), pts.end(), [&](const auto& q) {
      return geom::dist(p, q) < min_gap;
    });
    if (ok) pts.push_back(p);
  }
  return pts;
}

std::vector<geom::Vec2> jittered_grid(Rng& rng, std::size_t n,
                                      double spacing) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<geom::Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(geom::Vec2{
        static_cast<double>(i % side) * spacing + rng.uniform(-0.5, 0.5),
        static_cast<double>(i / side) * spacing + rng.uniform(-0.5, 0.5)});
  }
  return pts;
}

}  // namespace stig::sim
