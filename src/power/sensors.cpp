#include "power/sensors.hpp"

#include <cmath>
#include <stdexcept>

namespace dtpm::power {
namespace {

/// A noise or quantization parameter is finite and >= 0: a NaN would pass a
/// bare `< 0` check and turn every reading into NaN.
bool valid_sensor_parameter(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

PowerSensorBank::PowerSensorBank(const PowerSensorParams& params,
                                 util::Rng rng)
    : params_(params), rng_(rng) {
  if (!valid_sensor_parameter(params_.noise_fraction) ||
      !valid_sensor_parameter(params_.quantization_w)) {
    throw std::invalid_argument(
        "PowerSensorBank: negative or non-finite parameter");
  }
}

ResourceVector PowerSensorBank::read(const ResourceVector& true_power_w) {
  ResourceVector out{};
  for (std::size_t i = 0; i < kResourceCount; ++i) {
    double reading =
        true_power_w[i] * (1.0 + rng_.gaussian(0.0, params_.noise_fraction));
    if (params_.quantization_w > 0.0) {
      reading = std::round(reading / params_.quantization_w) * params_.quantization_w;
    }
    out[i] = std::max(reading, 0.0);
  }
  return out;
}

ExternalPowerMeter::ExternalPowerMeter(const PlatformLoadParams& params,
                                       util::Rng rng, double noise_fraction)
    : params_(params), rng_(rng), noise_fraction_(noise_fraction) {
  if (!valid_sensor_parameter(noise_fraction_)) {
    throw std::invalid_argument(
        "ExternalPowerMeter: negative or non-finite noise");
  }
}

double ExternalPowerMeter::read(const ResourceVector& true_rail_power_w,
                                double fan_power_w) {
  const double truth = total(true_rail_power_w) + fan_power_w +
                       params_.board_base_w + params_.display_w;
  return truth * (1.0 + rng_.gaussian(0.0, noise_fraction_));
}

}  // namespace dtpm::power
