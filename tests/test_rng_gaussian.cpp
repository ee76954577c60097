// Pins both Gaussian paths -- the one-off Rng::gaussian() and the sensor
// banks' block-drawn NormalStream -- to the libstdc++ sequence the golden
// traces were recorded against: a fresh std::normal_distribution per call
// over the same mt19937_64 must produce bit-identical deviates AND leave
// the engine in a bit-identical state, across means, stddevs, block
// boundaries and long interleaved sequences. If this ever fails on a new
// standard library, the golden traces -- not this implementation -- are
// what changed meaning.
//
// The engine itself is pinned the same way: Rng's raw words, discard(),
// the word-to-double conversion and every convenience draw must equal
// std::mt19937_64 and the libstdc++ distributions over it, the stream every
// golden was recorded against.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

namespace dtpm::util {

/// Reads a NormalStream's private engine, to check where a block refill
/// left it.
struct NormalStreamTestPeer {
  static Mt19937_64& engine(NormalStream& stream) {
    return stream.rng_.engine();
  }
};

namespace {

TEST(RngGaussian, BitIdenticalToFreshNormalDistributionPerCall) {
  Rng rng(12345);
  std::mt19937_64 reference(12345);
  const double means[] = {0.0, -3.5, 42.0};
  const double stddevs[] = {1.0, 0.2, 1e-3, 7.5};
  for (int i = 0; i < 20000; ++i) {
    const double mean = means[i % 3];
    const double stddev = stddevs[i % 4];
    const double want = std::normal_distribution<double>(mean, stddev)(reference);
    const double got = rng.gaussian(mean, stddev);
    ASSERT_EQ(got, want) << "draw " << i;
  }
  // Engine state advanced identically: the next raw words agree.
  ASSERT_EQ(rng.engine()(), reference());
}

TEST(RngGaussian, BlockStreamBitIdenticalToFreshNormalDistributionPerCall) {
  // n is not a multiple of the block, so the stream ends mid-block, having
  // drawn ceil(n / kBlock) whole blocks ahead of the reader.
  constexpr std::size_t kBlock = NormalStream::kBlock;
  constexpr std::size_t n = 40 * kBlock + 17;
  NormalStream stream{Rng(12345)};
  std::mt19937_64 reference(12345);
  const double means[] = {0.0, -3.5, 42.0};
  const double stddevs[] = {1.0, 0.2, 1e-3, 7.5};
  for (std::size_t i = 0; i < n; ++i) {
    const double mean = means[i % 3];
    const double stddev = stddevs[i % 4];
    const double want =
        std::normal_distribution<double>(mean, stddev)(reference);
    ASSERT_EQ(stream.gaussian(mean, stddev), want) << "draw " << i;
  }
  // The engine stands where the reference stands after the whole last block.
  for (std::size_t i = n; i < 41 * kBlock; ++i) {
    std::normal_distribution<double>()(reference);
  }
  ASSERT_EQ(NormalStreamTestPeer::engine(stream)(), reference());
}

TEST(RngGaussian, ZeroStddevReturnsMeanWithoutConsumingTheEngine) {
  Rng rng(7);
  const std::uint64_t before = Rng(7).engine()();
  EXPECT_EQ(rng.gaussian(5.0, 0.0), 5.0);
  EXPECT_EQ(rng.gaussian(5.0, -1.0), 5.0);
  EXPECT_EQ(rng.engine()(), before);

  // The block stream neither refills nor advances its reader on stddev <= 0,
  // so the deviates around such calls are the ones a noisy-only reader sees.
  NormalStream stream{Rng(7)};
  EXPECT_EQ(stream.gaussian(5.0, 0.0), 5.0);
  EXPECT_EQ(NormalStreamTestPeer::engine(stream)(), before);
  NormalStream mixed{Rng(8)};
  NormalStream noisy{Rng(8)};
  for (std::size_t i = 0; i < 3 * NormalStream::kBlock; ++i) {
    EXPECT_EQ(mixed.gaussian(5.0, -1.0), 5.0);
    ASSERT_EQ(mixed.gaussian(0.0, 1.0), noisy.gaussian(0.0, 1.0)) << i;
  }
}

const std::uint64_t kSeeds[] = {0, 1, 42,
                                std::numeric_limits<std::uint64_t>::max()};

TEST(RngEngine, WordsEqualStdMt19937_64) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rng.engine()(), reference()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(RngEngine, DiscardMatchesStdMt19937_64) {
  // Around both twist boundaries: the state is 312 words, twisted in two
  // halves of 156.
  for (const unsigned long long n : {0ull, 1ull, 155ull, 156ull, 311ull,
                                     312ull, 313ull, 1000ull}) {
    for (const std::uint64_t seed : kSeeds) {
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      rng.engine()();  // discard from a mid-state position too
      reference();
      rng.engine().discard(n);
      reference.discard(n);
      ASSERT_EQ(rng.engine()(), reference()) << "seed " << seed << " n " << n;
    }
  }
}

/// A URBG that returns one fixed word: feeds std::generate_canonical the
/// word under test.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

TEST(RngEngine, WordConversionMatchesCastOnEdgeWords) {
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  const std::uint64_t words[] = {
      0, 1, 2, 0xffffffffu, std::uint64_t{1} << 32, 0x1ffffffffu,
      kTwo53 - 1, kTwo53, kTwo53 + 1,  // 2^53 + 1 rounds to even
      kTwo63 - 1, kTwo63, kTwo63 + 1,
      kTwo63 + (1u << 10),             // a tie: rounds down to even 2^63
      kTwo63 + (3u << 10),             // a tie: rounds up to even
      kTwo63 + (1u << 10) + 1,         // just past the tie: rounds up
      ~std::uint64_t{0} - (1u << 9),   // rounds up to 2^64: clamps
      ~std::uint64_t{0},               // rounds to 2^64: canonical clamps
      0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  for (const std::uint64_t w : words) {
    ASSERT_EQ(u64_to_double(w), static_cast<double>(w)) << std::hex << w;
    FixedWord engine{w};
    ASSERT_EQ(canonical_from_word(w),
              (std::generate_canonical<double, 53>(engine)))
        << std::hex << w;
  }
  // Random words never reach the clamp; 2^64 - 1 does.
  EXPECT_EQ(canonical_from_word(~std::uint64_t{0}), std::nextafter(1.0, 0.0));
  EXPECT_EQ(canonical_from_word(0), 0.0);
}

TEST(RngEngine, DrawsMatchLibstdcxxDistributions) {
  Rng rng(20261017);
  std::mt19937_64 reference(20261017);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(rng.uniform(), std::uniform_real_distribution<double>(
                                 0.0, 1.0)(reference))
        << i;
    ASSERT_EQ(rng.uniform(-2.5, 7.0),
              std::uniform_real_distribution<double>(-2.5, 7.0)(reference))
        << i;
    ASSERT_EQ(rng.uniform_int(-3, 17),
              std::uniform_int_distribution<std::int64_t>(-3, 17)(reference))
        << i;
    ASSERT_EQ(rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()),
              std::uniform_int_distribution<std::int64_t>(
                  0, std::numeric_limits<std::int64_t>::max())(reference))
        << i;
    ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(reference))
        << i;
  }
  // fork() seeds the child from one word of the parent.
  Rng child = rng.fork();
  std::mt19937_64 reference_child(reference() ^ 0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(child.engine()(), reference_child()) << i;
  }
  ASSERT_EQ(rng.engine()(), reference());
}

}  // namespace
}  // namespace dtpm::util
