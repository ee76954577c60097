#include "thermal/sensor.hpp"

#include <cmath>
#include <stdexcept>

namespace dtpm::thermal {

TempSensorBank::TempSensorBank(std::vector<std::size_t> observed_nodes,
                               const TempSensorParams& params, util::Rng rng)
    : observed_nodes_(std::move(observed_nodes)), params_(params), rng_(rng) {
  if (observed_nodes_.empty()) {
    throw std::invalid_argument("TempSensorBank: no observed nodes");
  }
  // Finite and >= 0: a NaN would pass a bare `< 0` check and turn every
  // reading into NaN.
  for (const double v : {params_.quantization_c, params_.noise_stddev_c}) {
    if (!std::isfinite(v) || v < 0.0) {
      throw std::invalid_argument(
          "TempSensorBank: negative or non-finite sensor parameter");
    }
  }
}

void TempSensorBank::read_into(const std::vector<double>& true_temps_c,
                               std::vector<double>& readings_out) {
  readings_out.clear();
  readings_out.reserve(observed_nodes_.size());
  for (std::size_t node : observed_nodes_) {
    if (node >= true_temps_c.size()) {
      throw std::invalid_argument("TempSensorBank: node index out of range");
    }
    double reading = true_temps_c[node] + rng_.gaussian(0.0, params_.noise_stddev_c);
    if (params_.quantization_c > 0.0) {
      reading = std::round(reading / params_.quantization_c) * params_.quantization_c;
    }
    readings_out.push_back(reading);
  }
}

}  // namespace dtpm::thermal
