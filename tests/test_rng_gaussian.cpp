// Pins the hand-rolled Rng::gaussian() to the libstdc++ sequence the golden
// traces were recorded against: a fresh std::normal_distribution per call
// over the same mt19937_64 must produce bit-identical deviates AND leave
// the engine in a bit-identical state, across means, stddevs and long
// interleaved sequences. If this ever fails on a new standard library, the
// golden traces -- not this implementation -- are what changed meaning.
#include "util/rng.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace dtpm::util
