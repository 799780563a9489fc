// Deterministic pseudo-random number generation.
//
// All stochastic pieces of the library (benchmark traffic synthesis, the
// simulator's injection processes, randomized property tests) draw from
// this generator so that every experiment is reproducible from a seed.
// The engine is SplitMix64: tiny state, excellent statistical quality for
// our purposes, and identical output on every platform (unlike
// std::default_random_engine / std::uniform_int_distribution, whose
// behaviour is implementation-defined).
#pragma once

#include <cstdint>
#include <vector>

namespace nocdr {

/// Deterministic 64-bit PRNG (SplitMix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value. Inline, like NextDouble and NextBool:
  /// Bernoulli schedule synthesis draws once per flow per cycle.
  std::uint64_t Next() {
    // SplitMix64 (Steele, Lea, Flood 2014). Public-domain constants.
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). \p bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability \p p (clamped to [0,1]).
  bool NextBool(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return NextDouble() < p;
  }

  /// Fisher-Yates shuffle of \p items, deterministic given the seed.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBelow(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator; used to decorrelate
  /// sub-streams (e.g. per-flow injection processes).
  Rng Fork();

 private:
  std::uint64_t state_;
};

}  // namespace nocdr
