// Temperature sensor model. The Exynos 5410 exposes one thermal sensor per
// big core (§6.1.2); readings are quantized and mildly noisy, which is the
// measurement floor that ultimately limits identification and prediction
// accuracy in the reproduction, as on the board.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace dtpm::thermal {

/// Sensor error characteristics.
struct TempSensorParams {
  double quantization_c = 0.5;   ///< reading granularity (TMU-class sensor)
  double noise_stddev_c = 0.20;  ///< additive Gaussian noise before quantizing
};

inline bool operator==(const TempSensorParams& a, const TempSensorParams& b) {
  return a.quantization_c == b.quantization_c &&
         a.noise_stddev_c == b.noise_stddev_c;
}

/// Samples true node temperatures into sensor readings. The noise comes from
/// a private util::NormalStream, drawn a block at a time; a noise-free bank
/// (noise_stddev_c == 0) never draws from it.
class TempSensorBank {
 public:
  TempSensorBank(std::vector<std::size_t> observed_nodes,
                 const TempSensorParams& params, util::Rng rng);

  /// One reading per observed node, in observation order: clears and
  /// refills `readings_out`, whose capacity is reused across calls.
  void read_into(const std::vector<double>& true_temps_c,
                 std::vector<double>& readings_out);

  const std::vector<std::size_t>& observed_nodes() const {
    return observed_nodes_;
  }

 private:
  std::vector<std::size_t> observed_nodes_;
  TempSensorParams params_;
  util::NormalStream noise_;
};

}  // namespace dtpm::thermal
