// The steppable closed-loop simulation: every 100 ms control interval it
// reads the sensor models, runs the default governor and the configured
// thermal policy, applies the decision to the SoC, and advances the RC
// thermal plant in fine-grained substeps with leakage-temperature feedback.
// This is the software stack of Fig. 3.1 running against the simulated
// board, decomposed into a Plant bundle, a ControlStack, a
// PredictionObserver, and a TraceRecorder.
//
// Incremental API:
//   Simulation sim(config, &model);
//   while (sim.step()) { /* inspect sim.view() between intervals */ }
//   RunResult result = sim.finish();
//
// run_experiment (sim/engine.hpp) is a thin wrapper over exactly this loop.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "sim/config.hpp"
#include "sim/control_stack.hpp"
#include "sim/plant.hpp"
#include "sim/prediction_observer.hpp"
#include "sim/run_plan.hpp"
#include "sim/run_result.hpp"
#include "sim/step_buffers.hpp"
#include "sim/trace_recorder.hpp"
#include "util/rng.hpp"
#include "workload/background.hpp"

namespace dtpm::sim {

/// Read-only snapshot of the simulation state between control intervals.
struct SimulationView {
  double time_s = 0.0;       ///< simulated time, including the warm-up window
  std::size_t steps = 0;     ///< control intervals executed so far
  bool warmed_up = false;    ///< past the warm-up window, recording active
  bool benchmark_completed = false;
  bool runaway = false;      ///< aborted on thermal runaway (platform ceiling)
  double max_temp_c = 0.0;   ///< latest hottest big-core sensor reading
  double progress = 0.0;     ///< benchmark progress fraction [0, 1]
  double platform_power_w = 0.0;  ///< latest external-meter reading
  soc::SocConfig soc_config;      ///< currently applied actuation state
  thermal::FanSpeed fan = thermal::FanSpeed::kOff;
};

/// One experiment as an incrementally steppable object.
class Simulation {
 public:
  /// `model` is required for the "dtpm" policy and for
  /// observe_predictions (throws std::invalid_argument otherwise). A
  /// non-null `policy_override` replaces the policy selected by
  /// `config.policy_name` with a user-supplied implementation -- the extension
  /// point for custom thermal policies running closed-loop. A non-null
  /// `plan` (sim/run_plan.hpp) supplies pre-built batch invariants -- the
  /// floorplan template, propagator matrices and resolved benchmarks -- that
  /// construction reuses when they match the config; behavior is identical
  /// with or without one. The plan must outlive the Simulation: a
  /// propagator plant reads the plan's matrices instead of copying them.
  explicit Simulation(
      const ExperimentConfig& config,
      const sysid::IdentifiedPlatformModel* model = nullptr,
      std::unique_ptr<governors::ThermalPolicy> policy_override = nullptr,
      const RunPlan* plan = nullptr);

  /// Advances one control interval. Returns true while the run continues;
  /// false once a termination condition (benchmark completion, thermal
  /// runaway, or the simulated-time cap) has been reached.
  bool step();

  /// Split-phase stepping, for callers that time or inspect the plant
  /// advance on its own. step() is exactly:
  ///
  ///   if (!begin_step()) return false;
  ///   interval = plant().advance(staged_demand(), staged_background(),
  ///                              staged_instance(), plant_substeps(),
  ///                              plant_sub_dt_s());
  ///   return finish_step(interval);
  ///
  /// begin_step() samples the sensors, runs the control stack, applies the
  /// actuation, and stages the plant-advance inputs; it returns false (doing
  /// nothing) once the run is done. After a true return the caller MUST
  /// advance the plant and call finish_step() exactly once before the next
  /// begin_step().
  bool begin_step();
  bool finish_step(const PlantIntervalResult& interval);

  /// The platform descriptor the plant was built from.
  const PlatformDescriptor& platform() const { return *platform_; }

  /// The plant and the advance inputs staged by the last begin_step().
  Plant& plant() { return plant_; }
  const workload::Demand& staged_demand() const { return buffers_.demand; }
  const std::vector<workload::ThreadDemand>& staged_background() const {
    return buffers_.background_threads;
  }
  /// The foreground instance to advance, or null outside the benchmark
  /// window (warm-up / completed).
  workload::WorkloadInstance* staged_instance() {
    return pending_.active ? &instance_ : nullptr;
  }
  int plant_substeps() const { return substeps_; }
  double plant_sub_dt_s() const { return sub_dt_s_; }

  /// True once a termination condition has been reached.
  bool done() const { return done_; }

  const SimulationView& view() const { return view_; }

  /// Finalizes the derived metrics and returns the accumulated result.
  /// May be called mid-run (treats the current time as the end). Call at
  /// most once; throws std::logic_error on a second call.
  RunResult finish();

 private:
  void refresh_view(const std::vector<double>& sensor_temps,
                    double platform_power_w);

  /// State carried from begin_step() to finish_step() (sensor temps live in
  /// buffers_.sensor_temps).
  struct PendingStep {
    PredictionObserver::DueSample due;
    bool active = false;  ///< inside the benchmark window
    double platform_power_w = 0.0;
    bool armed = false;  ///< begin_step() ran, finish_step() has not
  };

  ExperimentConfig config_;
  /// The platform descriptor the plant was built from (config's
  /// `platform`). Declared before plant_ -- construction order matters.
  PlatformPtr platform_;
  /// Abort ceiling for the runaway check: the platform's
  /// resolved_runaway_abort_temp_c() (explicit, or t_max + margin).
  double runaway_abort_temp_c_;
  double dt_s_;
  int substeps_;
  double sub_dt_s_;

  util::Rng root_;
  Plant plant_;
  const workload::Benchmark& bench_;
  workload::BackgroundLoad background_;
  workload::WorkloadInstance instance_;
  ControlStack control_;
  PredictionObserver observer_;
  TraceRecorder recorder_;

  thermal::FanSpeed fan_speed_ = thermal::FanSpeed::kOff;
  power::ResourceVector last_rails_avg_{};
  double last_fan_power_ = 0.0;
  double last_cpu_max_util_ = 0.0;
  double last_cpu_avg_util_ = 0.0;
  double last_gpu_util_ = 0.0;

  double t_ = 0.0;
  std::size_t k_ = 0;
  bool started_ = false;
  double start_time_ = 0.0;
  double end_time_ = 0.0;
  double fan_energy_j_ = 0.0;
  bool runaway_ = false;
  bool done_ = false;
  bool finished_ = false;

  /// Reused per-step scratch: the steady-state step() path (trace recording
  /// and prediction observation off) performs zero heap allocations.
  StepBuffers buffers_;
  PendingStep pending_;
  std::size_t plant_substeps_ = 0;
  util::PhaseCycles phase_cycles_;
  std::chrono::steady_clock::time_point wall_start_;

  RunResult result_;
  SimulationView view_;
};

}  // namespace dtpm::sim
