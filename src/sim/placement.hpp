// Starting configurations.
//
// The paper assumes only that robots start at distinct positions. Every
// surface that builds a swarm (stigsim, the fuzzer, stigd sessions, the perf
// matrix, the benches, tests and examples) draws its start from one of these
// two functions; each caller keeps its own policy (seed salt, box, gap, when
// to switch to the grid) as plain arguments.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec.hpp"
#include "sim/rng.hpp"

namespace stig::sim {

/// Rejection scatter: draws points uniformly in [-extent, extent]^2 (x, then
/// y) and keeps each one that lies at least `min_gap` from every point kept
/// so far, until `n` are kept. Random packing jams near 0.547 of the box
/// area, so the draw gives up after 1000·n + 100000 attempts and throws
/// std::invalid_argument instead of looping.
[[nodiscard]] std::vector<geom::Vec2> scatter(Rng& rng, std::size_t n,
                                              double extent, double min_gap);

/// Jittered grid: point i sits at (i mod side, i div side) · spacing with
/// side = ceil(sqrt(n)), plus a uniform [-0.5, 0.5) jitter per axis. Needs
/// no retries, so it places any n; pairwise gaps are at least spacing − 1.
[[nodiscard]] std::vector<geom::Vec2> jittered_grid(Rng& rng, std::size_t n,
                                                    double spacing);

}  // namespace stig::sim
