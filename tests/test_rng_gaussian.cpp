// Pins the hand-rolled Rng::gaussian() to the libstdc++ sequence the golden
// traces were recorded against: a fresh std::normal_distribution per call
// over the same mt19937_64 must produce bit-identical deviates AND leave
// the engine in a bit-identical state, across means, stddevs and long
// interleaved sequences. If this ever fails on a new standard library, the
// golden traces -- not this implementation -- are what changed meaning.
//
// The engine itself is pinned the same way: Rng's raw words, discard(),
// and every convenience draw must equal std::mt19937_64 and the libstdc++
// distributions over it, the stream every golden was recorded against.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>

namespace dtpm::util {
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

TEST(RngGaussian, ZeroStddevReturnsMeanWithoutConsumingTheEngine) {
  Rng rng(7);
  const std::uint64_t before = Rng(7).engine()();
  EXPECT_EQ(rng.gaussian(5.0, 0.0), 5.0);
  EXPECT_EQ(rng.gaussian(5.0, -1.0), 5.0);
  EXPECT_EQ(rng.engine()(), before);
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
