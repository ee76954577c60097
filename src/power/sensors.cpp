#include "power/sensors.hpp"

#include <cmath>
#include <stdexcept>

namespace dtpm::power {

PowerSensorBank::PowerSensorBank(const PowerSensorParams& params,
                                 util::Rng rng)
    : params_(params), rng_(rng) {
  if (params_.noise_fraction < 0.0 || params_.quantization_w < 0.0) {
    throw std::invalid_argument("PowerSensorBank: negative parameter");
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
  if (noise_fraction_ < 0.0) {
    throw std::invalid_argument("ExternalPowerMeter: negative noise");
  }
}

double ExternalPowerMeter::read(const ResourceVector& true_rail_power_w,
                                double fan_power_w) {
  const double truth = total(true_rail_power_w) + fan_power_w +
                       params_.board_base_w + params_.display_w;
  return truth * (1.0 + rng_.gaussian(0.0, noise_fraction_));
}

}  // namespace dtpm::power
