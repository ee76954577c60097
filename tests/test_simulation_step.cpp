#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/trace_recorder.hpp"

namespace dtpm::sim {
namespace {

const sysid::IdentifiedPlatformModel& model() {
  return default_calibration().model;
}

ExperimentConfig quick_config(const char* benchmark, const char* policy) {
  ExperimentConfig c;
  c.benchmark = benchmark;
  c.policy_name = policy;
  return c;
}

// Bit-for-bit equality of two RunResults, trace rows included. NaN trace
// cells (the pred_* columns before/without an observer) compare equal.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.execution_time_s, b.execution_time_s);
  EXPECT_EQ(a.avg_platform_power_w, b.avg_platform_power_w);
  EXPECT_EQ(a.avg_soc_power_w, b.avg_soc_power_w);
  EXPECT_EQ(a.platform_energy_j, b.platform_energy_j);
  EXPECT_EQ(a.violation_time_s, b.violation_time_s);
  EXPECT_EQ(a.max_temp_stats.count(), b.max_temp_stats.count());
  EXPECT_EQ(a.max_temp_stats.mean(), b.max_temp_stats.mean());
  EXPECT_EQ(a.max_temp_stats.max(), b.max_temp_stats.max());
  EXPECT_EQ(a.prediction_mae_c, b.prediction_mae_c);
  EXPECT_EQ(a.prediction_mape, b.prediction_mape);
  EXPECT_EQ(a.prediction_samples, b.prediction_samples);
  EXPECT_EQ(a.dtpm.frequency_cap_events, b.dtpm.frequency_cap_events);
  EXPECT_EQ(a.dtpm.hotplug_events, b.dtpm.hotplug_events);
  ASSERT_EQ(a.trace.has_value(), b.trace.has_value());
  if (!a.trace) return;
  EXPECT_EQ(a.trace->header(), b.trace->header());
  ASSERT_EQ(a.trace->size(), b.trace->size());
  for (std::size_t r = 0; r < a.trace->size(); ++r) {
    const auto& row_a = a.trace->rows()[r];
    const auto& row_b = b.trace->rows()[r];
    ASSERT_EQ(row_a.size(), row_b.size());
    for (std::size_t c = 0; c < row_a.size(); ++c) {
      if (std::isnan(row_a[c]) && std::isnan(row_b[c])) continue;
      EXPECT_EQ(row_a[c], row_b[c])
          << "row " << r << " column " << a.trace->header()[c];
    }
  }
}

TEST(SimulationStep, ManualSteppingMatchesRunExperiment) {
  const ExperimentConfig config =
      quick_config("dijkstra", "default+fan");
  const RunResult reference = run_experiment(config);

  Simulation simulation(config);
  std::size_t steps = 0;
  while (simulation.step()) ++steps;
  EXPECT_TRUE(simulation.done());
  EXPECT_GT(steps, 100u);
  const RunResult stepped = simulation.finish();
  expect_identical(reference, stepped);
}

TEST(SimulationStep, DtpmWithObserverMatchesRunExperiment) {
  ExperimentConfig config = quick_config("sha", "dtpm");
  config.observe_predictions = true;
  const RunResult reference = run_experiment(config, &model());

  Simulation simulation(config, &model());
  while (simulation.step()) {
  }
  expect_identical(reference, simulation.finish());
}

TEST(SimulationStep, ViewTracksProgressAndTime) {
  Simulation simulation(quick_config("crc32", "no-fan"));
  EXPECT_EQ(simulation.view().steps, 0u);
  EXPECT_FALSE(simulation.done());

  double last_time = 0.0;
  double last_progress = 0.0;
  std::size_t last_steps = 0;
  while (simulation.step()) {
    const SimulationView& v = simulation.view();
    EXPECT_GT(v.time_s, last_time);
    EXPECT_GE(v.progress, last_progress);
    EXPECT_EQ(v.steps, last_steps + 1);
    EXPECT_GT(v.max_temp_c, 20.0);
    last_time = v.time_s;
    last_progress = v.progress;
    last_steps = v.steps;
  }
  EXPECT_TRUE(simulation.view().warmed_up);
  EXPECT_TRUE(simulation.view().benchmark_completed);
  EXPECT_NEAR(simulation.view().progress, 1.0, 0.05);
}

TEST(SimulationStep, StepAfterDoneIsNoOp) {
  ExperimentConfig config = quick_config("crc32", "no-fan");
  config.max_sim_time_s = 25.0;  // cap during/near warm-up: quick exit
  Simulation simulation(config);
  while (simulation.step()) {
  }
  const std::size_t steps = simulation.view().steps;
  EXPECT_FALSE(simulation.step());
  EXPECT_EQ(simulation.view().steps, steps);
}

TEST(SimulationStep, FinishTwiceThrows) {
  ExperimentConfig config = quick_config("crc32", "no-fan");
  config.max_sim_time_s = 25.0;
  Simulation simulation(config);
  while (simulation.step()) {
  }
  (void)simulation.finish();
  EXPECT_THROW(simulation.finish(), std::logic_error);
}

TEST(SimulationStep, ConstructorValidatesModelRequirements) {
  EXPECT_THROW(Simulation(quick_config("sha", "dtpm")),
               std::invalid_argument);
  ExperimentConfig c = quick_config("sha", "no-fan");
  c.observe_predictions = true;
  EXPECT_THROW(Simulation{c}, std::invalid_argument);
}

TEST(SimulationStep, TraceColumnsComeFromRecorderSchema) {
  ExperimentConfig config = quick_config("crc32", "no-fan");
  config.max_sim_time_s = 40.0;
  const RunResult r = run_experiment(config);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_EQ(r.trace->header(), TraceRecorder::column_names());
  EXPECT_EQ(TraceRecorder::column_names().size(), 23u);
}

}  // namespace
}  // namespace dtpm::sim
