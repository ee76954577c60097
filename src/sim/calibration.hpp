// The full Chapter-4 modeling workflow, run against the simulated plant:
//
//   1. Furnace leakage characterization (§4.1.1): pin the ambient node to
//      each furnace setpoint, run a light fixed-(f,V) workload, equilibrate,
//      record (temperature, rail power) samples, and fit the condensed
//      leakage parameters. The harness sweeps two fixed operating points so
//      the constant dynamic power separates from gate leakage (the paper's
//      furnace runs at one fixed point and performs this separation with its
//      run-time alphaC machinery; the two-point sweep is equivalent and
//      self-contained).
//   2. PRBS excitation (§4.2.1, Fig. 4.8): toggle each power resource's knob
//      between its extremes with a pseudo-random binary sequence while the
//      other resources idle, recording sensor temperature/power traces.
//   3. Least-squares identification of (A_s, B_s) over the concatenated
//      excitation segments (replacing the MATLAB sysid toolbox).
//
// The result is the IdentifiedPlatformModel consumed by the DTPM governor.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/platform.hpp"
#include "sysid/arx_fit.hpp"
#include "sysid/leakage_fit.hpp"
#include "sysid/model_store.hpp"

namespace dtpm::sim {

struct CalibrationOptions {
  /// The platform to calibrate (never null).
  PlatformPtr platform = default_platform();
  double control_interval_s = 0.1;
  double plant_substep_s = 0.02;

  /// Furnace sweep (§4.1.1): 40..80 C in 10 C increments.
  std::vector<double> furnace_temps_c{40.0, 50.0, 60.0, 70.0, 80.0};
  /// Sampling window at each setpoint after equilibration.
  double furnace_sample_s = 5.0;

  /// PRBS excitation per resource.
  double prbs_duration_s = 240.0;
  double prbs_warmup_s = 10.0;
  unsigned prbs_hold_intervals = 5;  ///< 0.5 s bit hold at 100 ms intervals

  std::uint64_t seed = 7;
};

/// Everything produced along the way, for the figure-regeneration benches.
struct CalibrationArtifacts {
  /// Furnace samples per resource (big, little, gpu, mem).
  std::array<std::vector<sysid::FurnaceSample>, power::kResourceCount>
      furnace_samples;
  std::array<sysid::LeakageFitResult, power::kResourceCount> leakage_fits;
  /// Excitation recordings in resource order (big, little, gpu, mem).
  std::vector<sysid::TraceSegment> excitation_segments;
  sysid::ArxFitResult arx;
  sysid::IdentifiedPlatformModel model;
};

/// Runs the full workflow.
CalibrationArtifacts calibrate_platform_full(const CalibrationOptions& options = {});

/// Convenience wrapper returning only the model.
sysid::IdentifiedPlatformModel calibrate_platform(
    const CalibrationOptions& options = {});

/// Process-wide cached calibration with default options; benches and tests
/// share it so the (cheap but not free) workflow runs once. Equivalent to
/// platform_calibration() on the odroid-xu-e descriptor.
const CalibrationArtifacts& default_calibration();

/// Process-wide per-platform calibration cache, keyed by descriptor name:
/// the first call for a platform runs the full Chapter-4 workflow against
/// that plant (with otherwise-default options); later calls return the
/// cached artifacts. This is what gives every platform in a sweep its own
/// identified model without recalibrating per run.
const CalibrationArtifacts& platform_calibration(const PlatformPtr& platform);

}  // namespace dtpm::sim
