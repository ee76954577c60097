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
//
// Stepping. Every furnace and excitation experiment is a sim::Plant on the
// propagator engine (thermal/lti_propagator.hpp), stepped through
// Plant::advance, over one PlantTemplate and one PropagatorTable per
// calibration: the as-built floorplan and its conductances (no experiment
// moves the fan edge) at the substep length
// control_interval_s / plant_substeps(control_interval_s, plant_substep_s),
// compiled on the calling thread before any pipeline starts and only read
// after.
// The propagator is the RK4 substep loop in exact arithmetic, so the two
// differ by rounding (~1e-13 C per step). Every calibration output passes
// through the temperature and power sensors' quantizers, so on every
// registry platform the outputs are byte-identical to stepping with
// RcNetwork::step (tests/golden/calibration_*.model pin them). On a
// platform whose sensors do not quantize, the rounding reaches the model:
// measured on the three registry platforms with quantization set to zero,
// the thermal model's A and B agree to 1e-12 relative and the leakage
// coefficients to 5e-7 relative (the golden-section search over c2 sits on
// a flat residual).
//
// Concurrency and RNG streams. Stages 1-2 are four independent pipelines, one
// per resource (furnace -> leakage fit -> excitation); calibrate_platform_full
// runs one on the calling thread and the other three on threads of their own,
// joins them, then fits the ARX model on the calling thread. The output is
// byte-identical to running the pipelines one after another: the root Rng
// (seeded from `seed`) is only ever consumed by experiment plants, two draws
// per plant -- 2 x furnace_temps_c.size() per furnace operating point (two
// points for big, little and GPU, one for memory), then 2 per excitation
// run -- so each pipeline starts from a copy of the root advanced to the
// draw position the serial order (furnace stages in resource order, then
// excitations) gives it. A Plant forks three streams (temperature bank,
// power bank, external meter); calibration never reads the meter, so each
// plant forks from a copy of the root, which then skips two draws.
// When pipelines fail, the error that order would have raised first is
// rethrown after every thread has joined. Options are validated before any
// thread starts. The workers never touch default_calibration() or
// platform_calibration(), so calling calibrate_platform_full under their
// locks cannot deadlock.
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
  /// Sampling window at each setpoint after equilibration (at least one
  /// sample). This and the PRBS durations count whole control intervals; a
  /// ratio within rounding error of an integer (0.3 s / 0.1 s) counts as it.
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
/// @throws std::invalid_argument on options the workflow cannot run (null
///         platform, non-positive or non-finite intervals, an empty furnace
///         sweep, a PRBS duration that records no interval, a zero hold).
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
