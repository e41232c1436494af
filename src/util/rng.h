// Deterministic pseudo-random number generation for the simulator.
//
// We implement xoshiro256** (Blackman & Vigna) seeded through SplitMix64
// rather than relying on std::mt19937 so that (a) streams are cheap to
// split — each stochastic process in the simulation gets an independent
// stream, which makes common-random-number comparisons across protocols
// reproducible — and (b) results are identical across standard libraries.

#pragma once

#include <cstdint>

namespace dynvote {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator with 2^256 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator. Distinct seeds give independent-looking streams.
  explicit Rng(std::uint64_t seed = 0x8899AABBCCDDEEFFULL);

  /// Returns the next 64 random bits.
  std::uint64_t Next();

  /// UniformRandomBitGenerator interface, so <random> distributions work.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return Next(); }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in (0, 1] — safe as input to -log(u).
  double NextDoubleOpenLow();

  /// The smallest value NextDoubleOpenLow returns, so -log of it is the
  /// longest NextExponential draw in units of its mean.
  static constexpr double kMinOpenLow = 0x1p-53;

  /// Uniform integer in [0, bound) using Lemire's method. bound must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// True with probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean);

  /// Creates a generator whose stream is statistically independent of this
  /// one (jump-free splitting via a SplitMix64 hash of fresh output).
  Rng Split();

 private:
  std::uint64_t s_[4];
};

}  // namespace dynvote
