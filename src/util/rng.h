// Deterministic random number generation for the simulators.
//
// All stochastic components of the framework (PCIe jitter, GPU timing noise,
// sparse-matrix synthesis) draw from grophecy::util::Rng so that every
// experiment is exactly reproducible from a seed. The generator is
// xoshiro256** seeded via SplitMix64, which is fast, high quality, and
// independent of the standard library's unspecified distributions: we
// implement the distributions we need ourselves so results are identical
// across platforms and standard libraries.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace grophecy::util {

/// xoshiro256** PRNG with SplitMix64 seeding. Deterministic across platforms.
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (deterministic, platform independent).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Lognormal such that the *median* of the distribution is `median` and
  /// the underlying normal has standard deviation `sigma`. A multiplicative
  /// jitter factor around 1.0 is lognormal(1.0, sigma).
  double lognormal(double median, double sigma);

  /// Fills `dst[0..n)` with standard-normal draws. Bitwise-identical to
  /// `n` successive `normal()` calls, including the Box-Muller pair cache:
  /// a fill may start by consuming a cached value and may end by leaving
  /// one behind, so any split of one stream into fills and single draws
  /// produces the same sequence.
  void fill_normal(double* dst, std::size_t n);

  /// Fills `dst[0..n)` with lognormal(median, sigma) draws,
  /// bitwise-identical to `n` successive `lognormal(median, sigma)` calls
  /// (same cache semantics as fill_normal).
  void fill_lognormal(double median, double sigma, double* dst,
                      std::size_t n);

  /// Advances the stream exactly as `n` successive `normal()` calls
  /// would, Box-Muller pair cache included, without computing the values
  /// it skips: a whole pair costs two raw draws. Lets a caller find where
  /// a later consumer of a known number of normals starts.
  void discard_normals(std::uint64_t n);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Forks an independent stream (useful to decorrelate subsystems).
  Rng fork();

 private:
  std::array<std::uint64_t, 4> state_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace grophecy::util
