// Deterministic per-task seed derivation for parallel batches.
//
// Every parallel consumer in the library (stigfuzz --jobs and --budget, the
// bench batch mode) derives one independent 64-bit seed per case from a
// root seed and the case index, via the splitmix64 output function. The
// derivation depends only on (root, index) — never on which worker thread
// runs the case or in what order cases complete — which is the foundation
// of the job-count-invariance guarantee: the same root seed produces the
// same per-case randomness at --jobs 1 and --jobs 8.
//
// `derive_seed(root, i)` equals the (i+1)-th output of a splitmix64 stream
// seeded with `root`; the sequential walk stigfuzz has always used is the
// special case of consuming indices 0, 1, 2, ... in order, so batch mode
// reproduces the historical case seeds exactly.
#pragma once

#include <cstdint>

namespace stig::par {

/// splitmix64 odd constant (Steele, Lea & Flood; golden-ratio increment).
inline constexpr std::uint64_t kSeedGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64 output function: a bijective avalanche mix of `z`.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The seed for case `index` of a batch rooted at `root`: element `index`
/// of the splitmix64 stream seeded with `root`. Pure function of its
/// arguments — safe to evaluate from any thread in any order.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t root,
                                                  std::uint64_t index)
    noexcept {
  return mix_seed(root + (index + 1) * kSeedGamma);
}

}  // namespace stig::par
