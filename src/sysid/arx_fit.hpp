// Least-squares identification of the thermal state-space model (§4.2.1).
//
// The paper records power/temperature time series while exciting one power
// resource at a time with a PRBS, then uses the MATLAB System Identification
// Toolbox to obtain (A_s, B_s). This module replaces the toolbox with an
// explicit ridge-regularized least-squares ARX fit over the concatenated
// excitation segments: regressors [T[k] - T_amb, P[k]], targets
// T[k+1] - T_amb, solved jointly for all rows.
#pragma once

#include <cstddef>
#include <vector>

#include "power/resource.hpp"
#include "sysid/thermal_model.hpp"

namespace dtpm::sysid {

/// One contiguous recording of intervals ts seconds long, flat and
/// row-major: row k is the `width` sensor temperatures at the start of
/// interval k, temps_c[k * width .. (k + 1) * width), and the
/// kResourceCount rail powers over it,
/// powers_w[k * kResourceCount .. (k + 1) * kResourceCount). Regression
/// pairs never straddle a segment boundary.
struct TraceSegment {
  std::size_t width = 0;         ///< temperatures per row
  std::vector<double> temps_c;   ///< rows() x width
  std::vector<double> powers_w;  ///< rows() x power::kResourceCount

  /// Rows recorded; a trailing partial row of temps_c is not counted.
  std::size_t rows() const { return width == 0 ? 0 : temps_c.size() / width; }

  /// Appends one row: `width` temperatures from `temps`, then `powers`.
  void append(const double* temps, const power::ResourceVector& powers) {
    temps_c.insert(temps_c.end(), temps, temps + width);
    powers_w.insert(powers_w.end(), powers.begin(), powers.end());
  }
};

/// Fit options.
struct ArxFitOptions {
  double ridge = 1e-8;          ///< Tikhonov regularization for conditioning
  double ambient_ref_c = 25.0;  ///< reference subtracted from temperatures
};

/// Result with residual diagnostics.
struct ArxFitResult {
  ThermalStateModel model;
  double rms_residual_c = 0.0;     ///< one-step-ahead RMS error over the data
  std::size_t sample_count = 0;
};

/// Fits T[k+1] = A T[k] + B P[k] from the segments, which share one width.
/// @throws std::invalid_argument on no segments, a zero or differing width,
///         a temps_c length that is not a multiple of the width, a powers_w
///         length that is not kResourceCount per temps row, a segment of
///         fewer than 2 rows, or fewer regression pairs than unknowns.
ArxFitResult fit_thermal_model(const std::vector<TraceSegment>& segments,
                               double ts_s, const ArxFitOptions& options = {});

}  // namespace dtpm::sysid
