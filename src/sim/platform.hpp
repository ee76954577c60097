// The data-driven platform layer: a PlatformDescriptor fully describes a
// simulated plant -- floorplan topology with role mapping, cluster/core
// layout, OPP tables, leakage and dynamic-power coefficients, sensor
// placement/quantization, fan model, and fixed platform loads -- as plain
// serializable data. It is the single source of truth for what hardware an
// experiment runs on: Plant, Simulation, calibration, the InvariantChecker,
// and the governors all consume descriptors.
//
// Descriptors are selected by name through the PlatformRegistry
// (sim/platform_registry.hpp) or defined inline in JSON config files
// (sim/config_io.hpp), so the plant is an experiment axis exactly like
// policies and scenarios.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "power/opp.hpp"
#include "power/sensors.hpp"
#include "soc/soc.hpp"
#include "thermal/fan.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/sensor.hpp"

namespace dtpm::sim {

/// A complete platform as data. Default-constructed, it describes the
/// Odroid-XU+E/Exynos-5410 plant the reproduction has always simulated.
struct PlatformDescriptor {
  /// Registry key and `dtpm list platforms` name.
  std::string name = "odroid-xu-e";
  /// One-line human description (listed by `dtpm list platforms --long`).
  std::string description =
      "Odroid-XU+E: Exynos 5410, 4xA15 + 4xA7, active fan (the paper's board)";

  /// Thermal topology plus the role mapping (core hotspots, cluster sinks,
  /// sensor sites, fan-modulated edge).
  thermal::FloorplanSpec floorplan = thermal::default_floorplan_spec();

  /// Cluster/core layout. The behavioural SoC model is currently fixed at
  /// four big + four little cores (soc::kBigCoreCount/kLittleCoreCount);
  /// validate() rejects descriptors that declare anything else, so a future
  /// variable-width SoC model can relax this in exactly one place.
  int big_cores = soc::kBigCoreCount;
  int little_cores = soc::kLittleCoreCount;

  /// DVFS domains as data (ascending frequency; validated via OppTable).
  std::vector<power::Opp> big_opps;
  std::vector<power::Opp> little_opps;
  std::vector<power::Opp> gpu_opps;

  /// Ground-truth power physics and performance model of the plant.
  soc::PlantPowerParams power{};
  soc::PerfParams perf{};

  /// Cooling. When the floorplan has no fan-modulated edge the fan params
  /// should be thermal::passive_cooling(...) so actuation stays a no-op.
  thermal::FanParams fan{};

  /// Sensor error characteristics.
  thermal::TempSensorParams temp_sensor{};
  power::PowerSensorParams power_sensor{};
  power::PlatformLoadParams platform_load{};

  /// The platform's recommended thermal constraint (skin/junction headroom):
  /// selecting the platform adopts it as DtpmParams::t_max_c unless the
  /// experiment overrides it explicitly. 63 C on the Odroid matches the fan
  /// policy's 50% threshold (§6.3.2).
  double default_t_max_c = 63.0;

  /// Hard simulation-abort ceiling: a run whose hottest true node exceeds
  /// this is declared thermal runaway and stopped (Simulation surfaces it in
  /// RunResult::runaway). 0 derives the platform-relative default
  /// `default_t_max_c + kRunawayAbortMarginC`, which fanless platforms use so
  /// a skin-limited phone aborts near its own envelope instead of cooking
  /// ~60 C past it. The Odroid pins the legacy 115 C explicitly: its
  /// junction legitimately sustains ~106 C fan-off equilibria (the no-fan
  /// curves of Fig. 1.1), so the ceiling must sit above them.
  double runaway_abort_temp_c = 115.0;

  /// Margin over default_t_max_c of the derived (runaway_abort_temp_c == 0)
  /// abort ceiling.
  static constexpr double kRunawayAbortMarginC = 30.0;

  /// The abort ceiling a Simulation on this platform actually uses.
  double resolved_runaway_abort_temp_c() const {
    return runaway_abort_temp_c > 0.0 ? runaway_abort_temp_c
                                      : default_t_max_c + kRunawayAbortMarginC;
  }

  PlatformDescriptor();

  bool has_fan() const { return floorplan.has_fan_edge(); }

  /// Structural validation (beyond what build_floorplan/OppTable check):
  /// empty name, core/sensor counts inconsistent with the SoC model, empty
  /// or unsorted OPP tables. Throws std::invalid_argument.
  void validate() const;

  /// OppTable views of the three DVFS domains (validating constructors).
  power::OppTable big_opp_table() const;
  power::OppTable little_opp_table() const;
  power::OppTable gpu_opp_table() const;
};

/// Memberwise equality; what the JSON round-trip identity test and the
/// RunPlan template-sharing logic compare.
bool operator==(const PlatformDescriptor& a, const PlatformDescriptor& b);
inline bool operator!=(const PlatformDescriptor& a,
                       const PlatformDescriptor& b) {
  return !(a == b);
}

using PlatformPtr = std::shared_ptr<const PlatformDescriptor>;

/// The PlatformRegistry's "odroid-xu-e" entry, looked up once per process:
/// the default platform of every ExperimentConfig and CalibrationOptions.
const PlatformPtr& default_platform();

}  // namespace dtpm::sim
