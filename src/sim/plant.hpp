// The simulated board as one bundle: floorplan + RC thermal network, SoC
// behavioural model, fan, and the sensor models through which the control
// stack observes it. Owns the hardware side of Fig. 3.1; the Simulation
// class drives it one control interval at a time.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "power/sensors.hpp"
#include "sim/platform.hpp"
#include "sim/stepping_engine.hpp"
#include "soc/soc.hpp"
#include "thermal/fan.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/lti_propagator.hpp"
#include "thermal/sensor.hpp"
#include "util/phase.hpp"
#include "util/rng.hpp"
#include "workload/runtime.hpp"

namespace dtpm::sim {

/// True plant outputs aggregated over one control interval.
struct PlantIntervalResult {
  power::ResourceVector rails_avg_w{};  ///< substep-time-averaged rail powers
  soc::SocStepResult last_substep;      ///< outputs of the last substep taken
  double consumed_s = 0.0;              ///< simulated time actually advanced
  int substeps_taken = 0;               ///< plant substeps actually executed
  bool benchmark_finished = false;      ///< the foreground workload completed
};

/// Pre-built parts Plants of one platform share instead of rebuilding them
/// (sim::RunPlan holds one per distinct platform in a batch).
struct PlantTemplate {
  /// Validated and compiled from the platform's floorplan; each Plant
  /// copies it.
  thermal::Floorplan floorplan;
  /// Phi/Gamma compiled for the floorplan's structure, shared read-only by
  /// every propagator Plant on it (it must outlive them); null when nothing
  /// was compiled.
  const thermal::PropagatorTable* propagators = nullptr;
};

/// Physical platform bundle: thermal plant, SoC, fan, and sensors -- all
/// built from a data-driven PlatformDescriptor (floorplan topology, role
/// indices, OPP tables, power physics, sensor models).
///
/// Simulation drives one Plant per run; calibration (sim/calibration.hpp)
/// builds one per furnace and excitation experiment.
///
/// Forks three RNG streams from `root` in a fixed order (temperature bank,
/// power bank, external meter) so experiments replay bit-identically.
/// Simulation forks its background stream after them, and calibration,
/// which never reads the meter, counts on the first two: both depend on
/// this order and count.
///
/// When `plant_template` is non-null its floorplan is copied instead of
/// rebuilding (validating + compiling) the network from the descriptor, and
/// a propagator Plant reads its Phi/Gamma table before compiling its own --
/// the RunPlan hoist for batches that share one platform across many runs.
/// The template must have been built from `platform.floorplan`.
class Plant {
 public:
  /// `engine` selects the thermal integrator advance() runs
  /// (sim/stepping_engine.hpp): propagator steps the compiled LTI map,
  /// reference-rk4 the RK4 loop. Callers name it; the default lives in
  /// ExperimentConfig::engine.
  Plant(const PlatformDescriptor& platform, util::Rng& root,
        const PlantTemplate* plant_template, Engine engine);

  /// Sensor sampling (start of a control interval); allocation-free: clears
  /// and refills `readings_out`.
  void read_temps_into(std::vector<double>& readings_out);
  power::ResourceVector read_rails(const power::ResourceVector& true_avg_w);
  double read_platform_power(const power::ResourceVector& true_avg_w,
                             double fan_power_w);

  /// Actuation.
  void apply(const soc::SocConfig& config) { soc_.apply(config); }
  void set_fan(thermal::FanSpeed speed);
  double fan_power_w(thermal::FanSpeed speed) const {
    return fan_.electrical_power_w(speed);
  }

  /// Advances the plant by `substeps` substeps of `sub_dt` seconds each,
  /// re-evaluating leakage-temperature feedback per substep. When `instance`
  /// is non-null the foreground progress advances it, and the interval ends
  /// early if it completes.
  ///
  /// The sequence, on either engine: Soc::solve_schedule once, then per
  /// substep Soc::step_captured, the seven SoC heat outputs written into
  /// the node-power vector (Floorplan::write_heat), one thermal step, and
  /// the commit
  /// of rails, time and progress. The thermal step is RcNetwork::step on
  /// reference-rk4. On the propagator the interval's [Phi | Gamma] entry is
  /// resolved once, before the loop (PropagatorRcModel::matrices_for), and
  /// every substep is one PropagatorRcModel::step_resolved matvec.
  ///
  /// When `phases` is non-null, the schedule solve is billed to
  /// Phase::kSchedule and the substep loop to Phase::kPlant.
  PlantIntervalResult advance(
      const workload::Demand& demand,
      const std::vector<workload::ThreadDemand>& background_threads,
      workload::WorkloadInstance* instance, int substeps, double sub_dt,
      util::PhaseCycles* phases = nullptr);

  Engine engine() const { return engine_; }
  const thermal::Floorplan& floorplan() const { return floorplan_; }
  thermal::Floorplan& floorplan() { return floorplan_; }

  const soc::Soc& soc() const { return soc_; }
  soc::Soc& soc() { return soc_; }
  /// Current true node temperatures (not sensor readings).
  const std::vector<double>& true_temps_c() const {
    return floorplan_.network.temperatures_c();
  }
  double max_true_temp_c() const;

 private:
  /// Tests read the propagator's step and compile counters through it.
  friend struct PlantTestPeer;

  thermal::Floorplan floorplan_;
  thermal::Fan fan_;
  soc::Soc soc_;
  thermal::TempSensorBank temp_bank_;
  power::PowerSensorBank power_bank_;
  power::ExternalPowerMeter meter_;
  Engine engine_;
  /// The propagator engine's thermal step; null for reference-rk4.
  std::unique_ptr<thermal::PropagatorRcModel> propagator_;
  /// floorplan_.heat_nodes(), resolved at construction: advance() reads the
  /// SoC's seven heat-source temperatures and writes its heat through it.
  thermal::Floorplan::HeatNodes heat_nodes_;
  /// Node-power injection, zeroed at construction; advance() rewrites only
  /// the heat_nodes_ entries (it allocates nothing).
  std::vector<double> node_power_;
};

}  // namespace dtpm::sim
