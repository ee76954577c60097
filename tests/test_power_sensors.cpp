#include "power/sensors.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace dtpm::power {
namespace {

TEST(PowerSensorBank, NoiselessQuantization) {
  PowerSensorParams params;
  params.noise_fraction = 0.0;
  params.quantization_w = 0.001;
  PowerSensorBank bank(params, util::Rng(1));
  const ResourceVector readings = bank.read({1.23456, 0.0004, 0.5, 2.0});
  EXPECT_DOUBLE_EQ(readings[0], 1.235);
  EXPECT_DOUBLE_EQ(readings[1], 0.0);
  EXPECT_DOUBLE_EQ(readings[2], 0.5);
  EXPECT_DOUBLE_EQ(readings[3], 2.0);
}

TEST(PowerSensorBank, NeverNegative) {
  PowerSensorParams params;
  params.noise_fraction = 0.5;  // absurdly noisy
  PowerSensorBank bank(params, util::Rng(7));
  for (int i = 0; i < 500; ++i) {
    for (double r : bank.read({0.001, 0.001, 0.001, 0.001})) {
      EXPECT_GE(r, 0.0);
    }
  }
}

TEST(PowerSensorBank, NoiseUnbiasedOnAverage) {
  PowerSensorParams params;
  params.noise_fraction = 0.01;
  params.quantization_w = 0.0;
  PowerSensorBank bank(params, util::Rng(3));
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += bank.read({2.0, 0, 0, 0})[0];
  EXPECT_NEAR(sum / n, 2.0, 0.002);
}

TEST(PowerSensorBank, NoiseFreeBankDrawsZerosWithoutConsumingTheStream) {
  // noise_fraction == 0 makes the bank's NormalStream return the 0 mean
  // without refilling or touching its engine (pinned in
  // test_rng_gaussian.cpp), so every read is the exact truth, across as many
  // reads as three noise blocks would serve.
  PowerSensorParams params;
  params.noise_fraction = 0.0;
  params.quantization_w = 0.0;  // nothing may round a stray draw away
  PowerSensorBank bank(params, util::Rng(9));
  const ResourceVector truth{1.23456, 0.0004, 0.5, 2.0};
  for (std::size_t i = 0; i < 3 * util::NormalStream::kBlock; ++i) {
    ASSERT_EQ(bank.read(truth), truth) << "read " << i;
  }
}

TEST(PowerSensorBank, NegativeParamsThrow) {
  PowerSensorParams bad;
  bad.noise_fraction = -0.1;
  EXPECT_THROW(PowerSensorBank(bad, util::Rng(1)), std::invalid_argument);
}

// A NaN parameter slips past a bare `< 0` check and makes every reading NaN
// (NormalStream::gaussian draws when `stddev <= 0` is false); infinities
// are no sensor either.
TEST(PowerSensorBank, NonFiniteParamsThrow) {
  for (const double v : {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    PowerSensorParams noise;
    noise.noise_fraction = v;
    EXPECT_THROW(PowerSensorBank(noise, util::Rng(1)), std::invalid_argument);
    PowerSensorParams quantization;
    quantization.quantization_w = v;
    EXPECT_THROW(PowerSensorBank(quantization, util::Rng(1)),
                 std::invalid_argument);
  }
}

TEST(ExternalPowerMeter, SumsRailsFanAndFixedLoads) {
  PlatformLoadParams loads;
  loads.board_base_w = 1.2;
  loads.display_w = 1.8;
  ExternalPowerMeter meter(loads, util::Rng(1), /*noise_fraction=*/0.0);
  const double reading = meter.read({1.0, 0.5, 0.25, 0.25}, 0.3);
  EXPECT_DOUBLE_EQ(reading, 1.0 + 0.5 + 0.25 + 0.25 + 0.3 + 1.2 + 1.8);
}

TEST(ExternalPowerMeter, FanPowerVisibleOnlyAtTheMeter) {
  // The fan draw is a platform-level load (the basis of the paper's savings
  // accounting): removing it changes the meter but not the rails.
  PlatformLoadParams loads;
  ExternalPowerMeter meter(loads, util::Rng(1), 0.0);
  const ResourceVector rails{1.0, 0.1, 0.2, 0.3};
  EXPECT_NEAR(meter.read(rails, 0.55) - meter.read(rails, 0.0), 0.55, 1e-12);
}

TEST(ExternalPowerMeter, NoiseFreeMeterDrawsZerosWithoutConsumingTheStream) {
  // As for the rail bank: a zero noise fraction never touches the meter's
  // NormalStream, so the reading is the exact platform sum on every read.
  PlatformLoadParams loads;
  ExternalPowerMeter meter(loads, util::Rng(9), /*noise_fraction=*/0.0);
  const ResourceVector rails{1.0, 0.1, 0.2, 0.3};
  const double truth =
      total(rails) + 0.55 + loads.board_base_w + loads.display_w;
  for (std::size_t i = 0; i < 3 * util::NormalStream::kBlock; ++i) {
    ASSERT_EQ(meter.read(rails, 0.55), truth) << "read " << i;
  }
}

TEST(ExternalPowerMeter, NegativeNoiseThrows) {
  EXPECT_THROW(ExternalPowerMeter(PlatformLoadParams{}, util::Rng(1), -0.1),
               std::invalid_argument);
}

TEST(ExternalPowerMeter, NonFiniteNoiseThrows) {
  for (const double v : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(ExternalPowerMeter(PlatformLoadParams{}, util::Rng(1), v),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace dtpm::power
