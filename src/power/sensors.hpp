// Power sensor models. The Odroid-XU+E exposes per-rail current sensors
// (big cluster, little cluster, GPU, memory) and the paper's setup adds an
// external power meter for the whole platform (Fig. 6.1). Rail readings are
// noisy and quantized; the external meter also sees the fan, display and
// board base power, which is exactly why "total platform power" savings in
// Fig. 6.9 include the removed fan.
#pragma once

#include "power/resource.hpp"
#include "util/rng.hpp"

namespace dtpm::power {

/// Rail sensor error characteristics (INA231-class parts).
struct PowerSensorParams {
  double noise_fraction = 0.01;     ///< multiplicative Gaussian noise (1 sigma)
  double quantization_w = 0.001;    ///< reading granularity
};

inline bool operator==(const PowerSensorParams& a, const PowerSensorParams& b) {
  return a.noise_fraction == b.noise_fraction &&
         a.quantization_w == b.quantization_w;
}

/// Samples true per-rail powers into sensor readings.
class PowerSensorBank {
 public:
  PowerSensorBank(const PowerSensorParams& params, util::Rng rng);

  ResourceVector read(const ResourceVector& true_power_w);

 private:
  PowerSensorParams params_;
  util::Rng rng_;
};

/// Non-SoC platform loads seen only by the external meter.
struct PlatformLoadParams {
  double board_base_w = 1.2;   ///< regulators, storage, networking
  double display_w = 1.8;      ///< panel + backlight, always on in experiments
};

inline bool operator==(const PlatformLoadParams& a,
                       const PlatformLoadParams& b) {
  return a.board_base_w == b.board_base_w && a.display_w == b.display_w;
}

/// External platform power meter: SoC rails + fan + fixed platform loads.
class ExternalPowerMeter {
 public:
  ExternalPowerMeter(const PlatformLoadParams& params, util::Rng rng,
                     double noise_fraction = 0.005);

  /// One platform-power sample in W.
  double read(const ResourceVector& true_rail_power_w, double fan_power_w);

  const PlatformLoadParams& params() const { return params_; }

 private:
  PlatformLoadParams params_;
  util::Rng rng_;
  double noise_fraction_;
};

}  // namespace dtpm::power
