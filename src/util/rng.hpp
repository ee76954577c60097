// Deterministic random number generation for reproducible simulations.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace dtpm::util {

/// The 64-bit Mersenne Twister, MT19937-64: the same seeding, twist and
/// tempering as std::mt19937_64, so it produces that engine's stream word
/// for word (pinned by tests/test_rng_gaussian.cpp). The twist selects the
/// matrix term with a mask, (0 - (y & 1)) & a, where libstdc++ branches on
/// each word's low bit -- a branch that mispredicts about half the time.
/// Meets UniformRandomBitGenerator, so the std distributions accept it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(result_type seed = 5489u) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ >= kStateSize) twist();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  /// Advances the stream by n words without tempering them.
  void discard(unsigned long long n) {
    while (n > kStateSize - next_) {
      n -= kStateSize - next_;
      twist();
    }
    next_ += static_cast<std::size_t>(n);
  }

 private:
  /// Regenerates all kStateSize words (the recurrence's shift is kShift).
  void twist() {
    constexpr std::size_t kShift = 156;
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    constexpr std::uint64_t kLower = ~kUpper;
    constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
    const auto mix = [](std::uint64_t hi, std::uint64_t lo) {
      const std::uint64_t y = (hi & kUpper) | (lo & kLower);
      return (y >> 1) ^ ((std::uint64_t{0} - (y & 1u)) & kMatrixA);
    };
    std::size_t k = 0;
    for (; k < kStateSize - kShift; ++k) {
      state_[k] = state_[k + kShift] ^ mix(state_[k], state_[k + 1]);
    }
    for (; k < kStateSize - 1; ++k) {
      state_[k] =
          state_[k + kShift - kStateSize] ^ mix(state_[k], state_[k + 1]);
    }
    state_[kStateSize - 1] =
        state_[kShift - 1] ^ mix(state_[kStateSize - 1], state_[0]);
    next_ = 0;
  }

  std::array<std::uint64_t, kStateSize> state_{};
  std::size_t next_ = kStateSize;
};

/// Thin wrapper over Mt19937_64 with convenience draws. Every stochastic
/// component in the library takes an explicit Rng (or a seed) so that whole
/// experiments replay bit-identically; there is no hidden global state.
/// uniform(), uniform_int() and bernoulli() are the libstdc++ distributions
/// over the engine, so every draw matches the same draw over
/// std::mt19937_64.
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

  Mt19937_64& engine() { return engine_; }

 private:
  /// One draw of std::generate_canonical<double, 53>(Mt19937_64): a single
  /// engine word scaled into [0, 1), clamped below 1 exactly as libstdc++
  /// does when the word rounds up to 2^64.
  double canonical() {
    constexpr double kTwo64 = 18446744073709551616.0;  // 2^64
    double ret = double(engine_()) / kTwo64;
    if (ret >= 1.0) ret = std::nextafter(1.0, 0.0);
    return ret;
  }

  Mt19937_64 engine_;
};

}  // namespace dtpm::util
