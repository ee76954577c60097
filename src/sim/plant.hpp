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
/// Forks three RNG streams from `root` in a fixed order (temperature bank,
/// power bank, external meter) so experiments replay bit-identically.
///
/// When `plant_template` is non-null its floorplan is copied instead of
/// rebuilding (validating + compiling) the network from the descriptor, and
/// a propagator Plant reads its Phi/Gamma table before compiling its own --
/// the RunPlan hoist for batches that share one platform across many runs.
/// The template must have been built from `platform.floorplan`.
class Plant {
 public:
  /// `engine` selects the thermal integrator advance() runs
  /// (sim/stepping_engine.hpp): reference-rk4 is the bit-exact RK4 loop,
  /// propagator swaps in the cached LTI step map.
  Plant(const PlatformDescriptor& platform, util::Rng& root,
        const PlantTemplate* plant_template = nullptr,
        Engine engine = Engine::kReferenceRk4);

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
  /// When `phases` is non-null, the first substep's SoC schedule solve is
  /// billed to Phase::kSchedule and the rest of the interval to
  /// Phase::kPlant.
  PlantIntervalResult advance(
      const workload::Demand& demand,
      const std::vector<workload::ThreadDemand>& background_threads,
      workload::WorkloadInstance* instance, int substeps, double sub_dt,
      util::PhaseCycles* phases = nullptr);

  Engine engine() const { return engine_; }
  const thermal::Floorplan& floorplan() const { return floorplan_; }

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

  /// advance() is exactly this sequence:
  ///
  ///   interval_begin();
  ///   for each substep:
  ///     substep_prepare(...);   // SoC step + node-power assembly
  ///     thermal_substep(sub_dt);
  ///     if (!substep_commit(...)) break;  // benchmark finished early
  ///   result = interval_end();
  void interval_begin();
  /// Reads the true node temperatures, steps the SoC model, and assembles
  /// the per-node power injection into node_power_scratch_.
  /// `reuse_schedule` must be false on the first substep of an interval and
  /// true after.
  void substep_prepare(
      const workload::Demand& demand,
      const std::vector<workload::ThreadDemand>& background_threads,
      double sub_dt, bool reuse_schedule);
  /// Advances the thermal network by sub_dt with the engine this plant was
  /// built with, using the power assembled by the last substep_prepare().
  void thermal_substep(double sub_dt);
  /// Accumulates rails/time/progress for the substep; returns false when
  /// the foreground workload completed (the interval ends early).
  bool substep_commit(workload::WorkloadInstance* instance, double sub_dt);
  /// Finalizes and returns the interval result (time-averaged rails).
  PlantIntervalResult interval_end();

  thermal::Floorplan floorplan_;
  thermal::Fan fan_;
  soc::Soc soc_;
  thermal::TempSensorBank temp_bank_;
  power::PowerSensorBank power_bank_;
  power::ExternalPowerMeter meter_;
  Engine engine_;
  /// Backs thermal_substep() for the propagator engine; null for
  /// reference-rk4.
  std::unique_ptr<thermal::PropagatorRcModel> propagator_;
  /// Reused node-power injection buffer (advance() allocates nothing).
  std::vector<double> node_power_scratch_;
  /// Interval accumulation state between interval_begin()/interval_end().
  PlantIntervalResult pending_;
  power::ResourceVector rails_accum_{};
};

}  // namespace dtpm::sim
