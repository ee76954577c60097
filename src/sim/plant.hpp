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

/// Physical platform bundle: thermal plant, SoC, fan, and sensors -- all
/// built from a data-driven PlatformDescriptor (floorplan topology, role
/// indices, OPP tables, power physics, sensor models).
///
/// Forks three RNG streams from `root` in a fixed order (temperature bank,
/// power bank, external meter) so experiments replay bit-identically.
///
/// When `floorplan_template` is non-null it is copied instead of rebuilding
/// (validating + compiling) the network from the descriptor -- the RunPlan
/// hoist for batches that share one platform across many runs. The template
/// must have been built from `platform.floorplan`.
class Plant {
 public:
  /// `engine` selects the thermal integrator advance() runs
  /// (sim/stepping_engine.hpp): reference-rk4 is the bit-exact RK4 loop,
  /// propagator swaps in the cached LTI step map, and batched behaves as
  /// propagator here (the structure-of-arrays lanes live in the batch
  /// driver, which steps the network out-of-band through the phase API
  /// below).
  Plant(const PlatformDescriptor& platform, util::Rng& root,
        const thermal::Floorplan* floorplan_template = nullptr,
        Engine engine = Engine::kReferenceRk4);

  /// Sensor sampling (start of a control interval); allocation-free: clears
  /// and refills `readings_out`.
  void read_temps_into(std::vector<double>& readings_out);
  power::ResourceVector read_rails(const power::ResourceVector& true_avg_w);
  double read_platform_power(const power::ResourceVector& true_avg_w,
                             double fan_power_w);

  /// Batched sensor noise. Each control interval samples every sensor bank
  /// exactly once (temperatures at the start, rails + platform meter at the
  /// end), and the banks own independent forked RNG streams, so all of an
  /// interval's noise can be drawn in one pass up front without changing
  /// any stream. draw_sensor_noise_into() fills sensor_noise_count() values
  /// (temp bank, then power bank, then meter -- each consuming its own RNG
  /// exactly as the scalar reads would); stage_sensor_noise() hands the
  /// block back, after which the three reads above consume their slices
  /// instead of drawing, bit-identical to the unstaged path. The staging is
  /// cleared when the meter slice is consumed (the interval's last read).
  std::size_t sensor_noise_count() const {
    return temp_bank_.noise_count() + power_bank_.noise_count() +
           meter_.noise_count();
  }
  void draw_sensor_noise_into(double* noise_out);
  void stage_sensor_noise(const double* noise) { staged_noise_ = noise; }

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

  /// Phase-decomposed interval API -- advance() is exactly this sequence:
  ///
  ///   interval_begin();
  ///   for each substep:
  ///     substep_prepare(...);   // SoC step + node-power assembly
  ///     thermal_substep(sub_dt);  // or an external engine steps network()
  ///     if (!substep_commit(...)) break;  // benchmark finished early
  ///   result = interval_end();
  ///
  /// The batch lane driver replaces thermal_substep() with a
  /// structure-of-arrays step across many plants; everything else runs
  /// through the same code path, so the scalar and batched engines share
  /// the SoC/power/bookkeeping arithmetic operation for operation.
  void interval_begin();
  /// Reads the true node temperatures, steps the SoC model, and assembles
  /// the per-node power injection; returns the assembled vector (valid
  /// until the next prepare). `reuse_schedule` must be false on the first
  /// substep of an interval and true after.
  const std::vector<double>& substep_prepare(
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

  Engine engine() const { return engine_; }
  /// Mutable view of the pending interval's per-substep record. The batch
  /// lane kernel writes the temperature-dependent fields (rail powers, core
  /// powers, progress) it evaluated in structure-of-arrays form, then runs
  /// the ordinary substep_commit() so all bookkeeping stays shared with the
  /// scalar path. Valid between interval_begin() and interval_end().
  soc::SocStepResult& pending_substep() { return pending_.last_substep; }
  /// The thermal network (external stepping engines advance it in place).
  thermal::RcNetwork& network() { return floorplan_.network; }
  const thermal::Floorplan& floorplan() const { return floorplan_; }
  /// The propagator backing this plant's thermal step; null when the
  /// engine is reference-rk4.
  thermal::PropagatorRcModel* propagator() { return propagator_.get(); }

  const soc::Soc& soc() const { return soc_; }
  soc::Soc& soc() { return soc_; }
  /// Current true node temperatures (not sensor readings).
  const std::vector<double>& true_temps_c() const {
    return floorplan_.network.temperatures_c();
  }
  double max_true_temp_c() const;

 private:
  thermal::Floorplan floorplan_;
  thermal::Fan fan_;
  soc::Soc soc_;
  thermal::TempSensorBank temp_bank_;
  power::PowerSensorBank power_bank_;
  power::ExternalPowerMeter meter_;
  Engine engine_;
  /// Backs thermal_substep() for the propagator/batched engines; null for
  /// reference-rk4.
  std::unique_ptr<thermal::PropagatorRcModel> propagator_;
  /// Reused node-power injection buffer (advance() allocates nothing).
  std::vector<double> node_power_scratch_;
  /// Interval accumulation state between interval_begin()/interval_end().
  PlantIntervalResult pending_;
  power::ResourceVector rails_accum_{};
  /// Pre-drawn sensor noise for the current interval (null = draw inline).
  const double* staged_noise_ = nullptr;
};

}  // namespace dtpm::sim
