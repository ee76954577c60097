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

/// `w` as a double, rounded to nearest-even exactly as static_cast<double>
/// rounds it. At baseline x86-64 that cast branches on the word's top bit
/// (there is no unsigned conversion instruction), a branch that mispredicts
/// about half the time on random words. Here each 32-bit half converts
/// exactly through the signed instruction, hi * 2^32 stays exact, and the
/// sum rounds once -- to the same double.
inline double u64_to_double(std::uint64_t w) {
  return double(std::int64_t(w >> 32)) * 0x1p32 +
         double(std::int64_t(w & 0xffffffffu));
}

/// std::generate_canonical<double, 53> over one 64-bit engine word: `w`
/// scaled into [0, 1), clamped below 1 exactly as libstdc++ clamps a word
/// that rounds up to 2^64.
inline double canonical_from_word(std::uint64_t w) {
  constexpr double kTwo64 = 18446744073709551616.0;  // 2^64
  const double ret = u64_to_double(w) / kTwo64;
  return ret >= 1.0 ? std::nextafter(1.0, 0.0) : ret;
}

/// Thin wrapper over Mt19937_64 with convenience draws. Every stochastic
/// component in the library takes an explicit Rng (or a seed) so that whole
/// experiments replay bit-identically; there is no hidden global state.
/// uniform() and bernoulli() return the same values as the libstdc++
/// distributions over the engine, computed through canonical() as libstdc++
/// computes them for a 64-bit engine (canonical() * (hi - lo) + lo and
/// canonical() < p); uniform_int() is the libstdc++ distribution itself. So
/// every draw matches the same draw over std::mt19937_64.
///
/// gaussian() is a hand-rolled Marsaglia polar transform that reproduces,
/// bit for bit, the sequence a fresh libstdc++ std::normal_distribution
/// produces per call -- the sequence every golden trace was recorded
/// against -- without constructing a distribution object per draw.
/// NormalStream draws the same deviates a block at a time through the same
/// rejection and transform steps. The bit-compat contract is pinned by
/// tests/test_rng_gaussian.cpp.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return canonical() * (hi - lo) + lo;
  }

  /// Gaussian with the given mean and standard deviation. stddev <= 0
  /// returns the mean without consuming the engine (a degenerate sensor is
  /// noise-free, and must not perturb the stream other draws replay from).
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    if (stddev <= 0.0) return mean;
    PolarPoint p;
    do {
      p = polar_candidate();
    } while (!polar_accepts(p.r2));
    return polar_deviate(p.y, p.r2) * stddev + mean;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) { return canonical() < p; }

  /// Derives an independent child stream; used to give each subsystem its own
  /// stream so adding draws to one does not perturb another.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  Mt19937_64& engine() { return engine_; }

 private:
  friend class NormalStream;

  /// A candidate point of the polar method: y and r2 = x^2 + y^2.
  struct PolarPoint {
    double y;
    double r2;
  };

  /// One draw of std::generate_canonical<double, 53>(Mt19937_64).
  double canonical() { return canonical_from_word(engine_()); }

  /// One candidate point of Marsaglia's polar method. Drawing candidates
  /// until polar_accepts() is, operation for operation, the libstdc++
  /// std::normal_distribution rejection loop (bits/random.tcc), so the
  /// engine stream advances identically. The companion deviate x * mult is
  /// discarded, as a fresh distribution object per call discards it.
  PolarPoint polar_candidate() {
    const double x = 2.0 * canonical() - 1.0;
    const double y = 2.0 * canonical() - 1.0;
    return {y, x * x + y * y};
  }

  /// The rejection test, r2 in (0, 1]. `|`, not `||`: NormalStream's
  /// refill then advances its slot without branching on the outcome.
  static bool polar_accepts(double r2) {
    return !((r2 > 1.0) | (r2 == 0.0));
  }

  /// The standard-normal deviate of an accepted point: y * mult.
  static double polar_deviate(double y, double r2) {
    return y * std::sqrt(-2.0 * std::log(r2) / r2);
  }

  Mt19937_64 engine_;
};

/// Standard-normal deviates from a private Rng, drawn kBlock at a time: the
/// sensor banks' noise source. A refill runs the polar rejection loop for
/// the whole block first and the transform second, so the block's
/// independent log/div/sqrt chains overlap instead of each waiting behind
/// its own rejection loop. The deviates are the ones Rng::gaussian would
/// draw from the same Rng, in the same order; drawing ahead changes no value
/// because nothing else reads the stream. A run leaves at most one block's
/// unread tail behind.
class NormalStream {
 public:
  /// Odd, so a bank reading k deviates per control interval refills on a
  /// pattern that repeats every 63 / gcd(63, k) intervals, an odd number:
  /// perfbench's every-8th-interval timing sample then meets refills at
  /// their average rate. 63 doubles is 504 bytes per bank.
  static constexpr std::size_t kBlock = 63;

  explicit NormalStream(Rng rng) : rng_(rng) {}

  /// Rng::gaussian's contract on the next deviate: stddev <= 0 returns the
  /// mean without touching the stream, else z * stddev + mean.
  double gaussian(double mean, double stddev) {
    if (stddev <= 0.0) return mean;
    if (next_ == kBlock) refill();
    return block_[next_++] * stddev + mean;
  }

 private:
  /// Tests read the engine to check where a refill left it.
  friend struct NormalStreamTestPeer;

  /// Candidates land at the next free slot, which advances only on
  /// acceptance: the rejection loop has no data-dependent branch.
  void refill() {
    std::array<double, kBlock> r2{};
    for (std::size_t n = 0; n < kBlock;) {
      const Rng::PolarPoint p = rng_.polar_candidate();
      block_[n] = p.y;
      r2[n] = p.r2;
      n += Rng::polar_accepts(p.r2);
    }
    for (std::size_t i = 0; i < kBlock; ++i) {
      block_[i] = Rng::polar_deviate(block_[i], r2[i]);
    }
    next_ = 0;
  }

  Rng rng_;
  std::array<double, kBlock> block_{};
  std::size_t next_ = kBlock;
};

}  // namespace dtpm::util
