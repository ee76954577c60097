#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "thermal/fan.hpp"
#include "thermal/sensor.hpp"

namespace dtpm::thermal {
namespace {

TEST(Fan, ConductanceMonotoneInSpeed) {
  Fan fan;
  EXPECT_LT(fan.conductance_w_per_k(FanSpeed::kOff),
            fan.conductance_w_per_k(FanSpeed::kLow));
  EXPECT_LT(fan.conductance_w_per_k(FanSpeed::kLow),
            fan.conductance_w_per_k(FanSpeed::kHalf));
  EXPECT_LT(fan.conductance_w_per_k(FanSpeed::kHalf),
            fan.conductance_w_per_k(FanSpeed::kFull));
}

TEST(Fan, PowerMonotoneInSpeedAndZeroWhenOff) {
  Fan fan;
  EXPECT_EQ(fan.electrical_power_w(FanSpeed::kOff), 0.0);
  EXPECT_LT(fan.electrical_power_w(FanSpeed::kLow),
            fan.electrical_power_w(FanSpeed::kHalf));
  EXPECT_LT(fan.electrical_power_w(FanSpeed::kHalf),
            fan.electrical_power_w(FanSpeed::kFull));
}

TEST(Fan, SpeedNames) {
  EXPECT_STREQ(to_string(FanSpeed::kOff), "off");
  EXPECT_STREQ(to_string(FanSpeed::kLow), "low");
  EXPECT_STREQ(to_string(FanSpeed::kHalf), "50%");
  EXPECT_STREQ(to_string(FanSpeed::kFull), "100%");
}

TEST(TempSensor, NoiselessSensorQuantizes) {
  TempSensorParams params;
  params.noise_stddev_c = 0.0;
  params.quantization_c = 0.5;
  TempSensorBank bank({0, 1}, params, util::Rng(1));
  std::vector<double> readings;
  bank.read_into({45.26, 45.74}, readings);
  EXPECT_DOUBLE_EQ(readings[0], 45.5);
  EXPECT_DOUBLE_EQ(readings[1], 45.5);
}

TEST(TempSensor, ExactWhenNoiseAndQuantizationDisabled) {
  TempSensorParams params;
  params.noise_stddev_c = 0.0;
  params.quantization_c = 0.0;
  TempSensorBank bank({0}, params, util::Rng(1));
  std::vector<double> readings;
  bank.read_into({51.237}, readings);
  EXPECT_DOUBLE_EQ(readings[0], 51.237);
}

TEST(TempSensor, NoiseIsBoundedOnAverage) {
  TempSensorParams params;
  params.noise_stddev_c = 0.2;
  params.quantization_c = 0.5;
  TempSensorBank bank({0}, params, util::Rng(99));
  double sum = 0.0;
  const int n = 2000;
  std::vector<double> readings;
  for (int i = 0; i < n; ++i) {
    bank.read_into({60.0}, readings);
    sum += readings[0];
  }
  EXPECT_NEAR(sum / n, 60.0, 0.05);
}

TEST(TempSensor, ObservesRequestedNodesInOrder) {
  TempSensorParams params;
  params.noise_stddev_c = 0.0;
  params.quantization_c = 0.0;
  TempSensorBank bank({2, 0}, params, util::Rng(1));
  std::vector<double> readings;
  bank.read_into({10.0, 20.0, 30.0}, readings);
  ASSERT_EQ(readings.size(), 2u);
  EXPECT_EQ(readings[0], 30.0);
  EXPECT_EQ(readings[1], 10.0);
}

TEST(TempSensor, NoiseFreeBankDrawsZerosWithoutConsumingTheStream) {
  // stddev <= 0 makes the bank's NormalStream return the 0 mean without
  // refilling or touching its engine (pinned in test_rng_gaussian.cpp), so
  // every read of a noise-free bank is the exact truth, however many reads
  // came before.
  TempSensorParams params;
  params.noise_stddev_c = 0.0;
  params.quantization_c = 0.0;  // nothing may round a stray draw away
  TempSensorBank bank({0, 1}, params, util::Rng(9));
  std::vector<double> readings;
  for (int i = 0; i < 64; ++i) {
    bank.read_into({50.26, 51.0}, readings);
    ASSERT_EQ(readings, (std::vector<double>{50.26, 51.0})) << "read " << i;
  }
}

TEST(TempSensor, Validation) {
  TempSensorParams bad;
  bad.quantization_c = -1.0;
  EXPECT_THROW(TempSensorBank({0}, bad, util::Rng(1)), std::invalid_argument);
  EXPECT_THROW(TempSensorBank({}, TempSensorParams{}, util::Rng(1)),
               std::invalid_argument);
  TempSensorBank bank({5}, TempSensorParams{}, util::Rng(1));
  std::vector<double> readings;
  EXPECT_THROW(bank.read_into({1.0, 2.0}, readings), std::invalid_argument);
}

// A NaN parameter slips past a bare `< 0` check and makes every reading NaN
// (NormalStream::gaussian draws when `stddev <= 0` is false); infinities
// are no sensor either.
TEST(TempSensor, RejectsNonFiniteParameters) {
  for (const double v : {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    TempSensorParams noise;
    noise.noise_stddev_c = v;
    EXPECT_THROW(TempSensorBank({0}, noise, util::Rng(1)),
                 std::invalid_argument);
    TempSensorParams quantization;
    quantization.quantization_c = v;
    EXPECT_THROW(TempSensorBank({0}, quantization, util::Rng(1)),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace dtpm::thermal
