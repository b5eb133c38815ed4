#include "util/rng.h"

#include <cmath>

#include "util/contracts.h"

namespace grophecy::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  GROPHECY_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  GROPHECY_EXPECTS(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~std::uint64_t{0}) - (~std::uint64_t{0}) % range;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; avoid log(0) by nudging u1 away from zero.
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  have_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  GROPHECY_EXPECTS(stddev >= 0.0);
  return mean + stddev * normal();
}

double Rng::lognormal(double median, double sigma) {
  GROPHECY_EXPECTS(median > 0.0);
  GROPHECY_EXPECTS(sigma >= 0.0);
  return median * std::exp(sigma * normal());
}

void Rng::fill_normal(double* dst, std::size_t n) {
  if (n == 0) return;
  GROPHECY_EXPECTS(dst != nullptr);
  std::size_t i = 0;
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    dst[i++] = cached_normal_;
  }
  // Whole Box-Muller pairs land directly in the output — same expressions
  // and evaluation order as normal(), just without the cache round-trip,
  // so the stream is bitwise-identical to sequential draws.
  while (i + 2 <= n) {
    double u1 = uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    dst[i] = radius * std::cos(angle);
    dst[i + 1] = radius * std::sin(angle);
    i += 2;
  }
  // Odd tail: a normal() call caches its pair's second value for whoever
  // draws next, exactly as the sequential stream would.
  if (i < n) dst[i] = normal();
}

void Rng::fill_lognormal(double median, double sigma, double* dst,
                         std::size_t n) {
  GROPHECY_EXPECTS(median > 0.0);
  GROPHECY_EXPECTS(sigma >= 0.0);
  fill_normal(dst, n);
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = median * std::exp(sigma * dst[i]);
}

void Rng::discard_normals(std::uint64_t n) {
  if (n == 0) return;
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    --n;
  }
  // A whole pair consumes two uniforms and leaves no cache behind.
  for (std::uint64_t pairs = n / 2; pairs > 0; --pairs) {
    next_u64();
    next_u64();
  }
  // An odd tail draws a pair and caches its second value, as normal() does.
  if (n % 2 != 0) normal();
}

bool Rng::bernoulli(double p) {
  GROPHECY_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

Rng Rng::fork() {
  return Rng(next_u64());
}

}  // namespace grophecy::util
