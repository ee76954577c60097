// Aggregate results of one benchmark run, shared by the steppable
// Simulation, the run_experiment convenience wrapper, and the BatchRunner.
#pragma once

#include <cstddef>
#include <optional>

#include "core/dtpm_governor.hpp"
#include "util/csv.hpp"
#include "util/phase.hpp"
#include "util/stats.hpp"

namespace dtpm::sim {

/// Aggregate results of one benchmark run.
struct RunResult {
  bool completed = false;           ///< benchmark finished before the time cap
  double execution_time_s = 0.0;    ///< the paper's performance metric
  double avg_platform_power_w = 0.0;  ///< external meter average (incl. fan)
  double avg_soc_power_w = 0.0;     ///< SoC rails only
  double platform_energy_j = 0.0;

  /// The run was aborted because a true node temperature crossed the
  /// platform's abort ceiling (thermal runaway). Implies !completed.
  bool runaway = false;
  /// The abort ceiling that applied -- the platform's
  /// resolved_runaway_abort_temp_c(), recorded so result consumers can
  /// interpret `runaway` without the descriptor at hand.
  double runaway_abort_temp_c = 0.0;

  /// Statistics of the max-core-temperature trace (Figs. 6.3-6.5).
  util::RunningStats max_temp_stats;
  /// Wall-clock time spent above the 63 C constraint.
  double violation_time_s = 0.0;

  /// Observe-only prediction validation (when enabled): errors between
  /// T[k+h] predictions and the later sensor measurements, across all four
  /// hotspots (§6.3.1's convention: percentage of the measured reading).
  double prediction_mae_c = 0.0;
  double prediction_mape = 0.0;
  double prediction_max_ape = 0.0;
  std::size_t prediction_samples = 0;

  /// DTPM actuation counters (zero for other policies).
  core::DtpmDiagnostics dtpm;

  /// Per-run cost counters (filled by Simulation::finish); perfbench reads
  /// them for its sim.control_steps and thermal.plant_substeps layer metrics.
  std::size_t control_steps = 0;   ///< Simulation::step() calls executed
  std::size_t plant_substeps = 0;  ///< plant substeps actually taken
  double wall_time_s = 0.0;        ///< wall-clock from construction to finish
  /// Per-phase tick breakdown (all zero unless config.profile_phases).
  util::PhaseCycles phase_cycles;

  /// Per-interval trace (absent when record_trace is false). The column
  /// schema is owned by TraceRecorder::column_names() -- see
  /// sim/trace_recorder.hpp for the authoritative list and documentation.
  std::optional<util::TraceTable> trace;
};

}  // namespace dtpm::sim
