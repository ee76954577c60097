// Deterministic random number generation for reproducible simulations.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace dtpm::util {

/// Thin wrapper over std::mt19937_64 with convenience draws. Every stochastic
/// component in the library takes an explicit Rng (or a seed) so that whole
/// experiments replay bit-identically; there is no hidden global state.
///
/// gaussian() is a hand-rolled Marsaglia polar transform that reproduces,
/// bit for bit, the sequence a fresh libstdc++ std::normal_distribution
/// produces per call -- the sequence every golden trace was recorded
/// against -- without constructing a distribution object per draw. The
/// bit-compat contract is pinned by tests/test_rng_gaussian.cpp.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation. stddev <= 0
  /// returns the mean without consuming the engine (a degenerate sensor is
  /// noise-free, and must not perturb the stream other draws replay from).
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    if (stddev <= 0.0) return mean;
    // Marsaglia polar rejection, operation for operation the libstdc++
    // std::normal_distribution one (bits/random.tcc), so the engine stream
    // advances identically. The companion deviate x * mult is discarded,
    // as a fresh distribution object per call discards it.
    double x, y, r2;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult * stddev + mean;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derives an independent child stream; used to give each subsystem its own
  /// stream so adding draws to one does not perturb another.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  /// One draw of std::generate_canonical<double, 53>(mt19937_64): a single
  /// engine word scaled into [0, 1), clamped below 1 exactly as libstdc++
  /// does when the word rounds up to 2^64.
  double canonical() {
    constexpr double kTwo64 = 18446744073709551616.0;  // 2^64
    double ret = double(engine_()) / kTwo64;
    if (ret >= 1.0) ret = std::nextafter(1.0, 0.0);
    return ret;
  }

  std::mt19937_64 engine_;
};

}  // namespace dtpm::util
