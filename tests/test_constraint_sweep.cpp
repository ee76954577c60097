// Property sweeps over the DTPM algorithm's configuration space: §5.1 states
// the trigger value can be varied for different systems while the algorithm
// stays the same, and the prediction horizon is a free parameter of Eq. 4.5.
// These parameterized tests assert that regulation holds across both.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/simulation.hpp"

namespace dtpm::sim {
namespace {

const sysid::IdentifiedPlatformModel& model() {
  return default_calibration().model;
}

RunResult run_with(const core::DtpmParams& params,
                   const std::string& benchmark = "basicmath") {
  ExperimentConfig c;
  c.benchmark = benchmark;
  c.policy_name = "dtpm";
  c.record_trace = false;
  c.dtpm = params;
  return run_experiment(c, &model());
}

// --- Constraint sweep --------------------------------------------------------

class ConstraintSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConstraintSweep, RegulatesAtAnyTrigger) {
  core::DtpmParams params;
  params.t_max_c = GetParam();
  const RunResult r = run_with(params);
  EXPECT_TRUE(r.completed);
  // One sensor quantum of slack above the configured constraint.
  EXPECT_LE(r.max_temp_stats.max(), GetParam() + 0.75) << GetParam();
}

TEST_P(ConstraintSweep, TighterConstraintNeverSpeedsExecution) {
  core::DtpmParams tight;
  tight.t_max_c = GetParam();
  core::DtpmParams loose;
  loose.t_max_c = GetParam() + 4.0;
  const RunResult r_tight = run_with(tight);
  const RunResult r_loose = run_with(loose);
  EXPECT_GE(r_tight.execution_time_s, r_loose.execution_time_s - 0.5)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Triggers, ConstraintSweep,
                         ::testing::Values(58.0, 60.0, 63.0, 66.0, 70.0));

// --- Horizon sweep -----------------------------------------------------------

class HorizonSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(HorizonSweep, RegulatesAtAnyHorizon) {
  core::DtpmParams params;
  params.horizon_steps = GetParam();
  const RunResult r = run_with(params);
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.max_temp_stats.max(), params.t_max_c + 1.0) << GetParam();
  // Regulation must not cost more than a bounded slowdown at any horizon.
  EXPECT_LT(r.execution_time_s, 1.25 * 139.9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Horizons, HorizonSweep,
                         ::testing::Values(5u, 10u, 20u, 40u));

// --- Row-policy ablation ------------------------------------------------------

TEST(RowPolicyAblation, AllHotspotsIsAtLeastAsCool) {
  core::DtpmParams hottest;
  hottest.row_policy = core::BudgetRowPolicy::kHottestCore;
  core::DtpmParams all;
  all.row_policy = core::BudgetRowPolicy::kAllHotspots;
  const RunResult r_hot = run_with(hottest);
  const RunResult r_all = run_with(all);
  EXPECT_LE(r_all.max_temp_stats.max(), r_hot.max_temp_stats.max() + 0.5);
  // And both regulate.
  EXPECT_LE(r_hot.max_temp_stats.max(), 63.5);
  EXPECT_LE(r_all.max_temp_stats.max(), 63.5);
}

/// A "dtpm" config on a copy of the default platform with `tweak` applied,
/// installed through set_platform so the plant is built from it.
template <typename Tweak>
ExperimentConfig tweaked_platform_config(const std::string& benchmark,
                                         Tweak tweak) {
  ExperimentConfig c;
  c.benchmark = benchmark;
  c.policy_name = "dtpm";
  c.record_trace = false;
  PlatformDescriptor d = *c.platform;
  tweak(d);
  set_platform(c, std::make_shared<const PlatformDescriptor>(std::move(d)));
  return c;
}

// --- Sensor-degradation robustness -------------------------------------------

class SensorNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(SensorNoiseSweep, RegulationSurvivesNoisySensors) {
  const double sigma = GetParam();
  const ExperimentConfig c = tweaked_platform_config(
      "basicmath",
      [sigma](PlatformDescriptor& d) { d.temp_sensor.noise_stddev_c = sigma; });
  // The tweak reaches the descriptor the plant is built from.
  EXPECT_EQ(Simulation(c, &model()).platform().temp_sensor.noise_stddev_c,
            sigma);
  const RunResult r = run_experiment(c, &model());
  EXPECT_TRUE(r.completed);
  // Allow the noise floor itself on top of the constraint.
  EXPECT_LE(r.max_temp_stats.max(), 63.0 + 1.0 + 3.0 * GetParam())
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, SensorNoiseSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 1.0));

TEST(SensorRobustness, CoarseQuantizationStillRegulates) {
  const ExperimentConfig c =
      tweaked_platform_config("fft", [](PlatformDescriptor& d) {
        d.temp_sensor.quantization_c = 1.0;  // a 1 C TMU
      });
  EXPECT_EQ(Simulation(c, &model()).platform().temp_sensor.quantization_c,
            1.0);
  const RunResult r = run_experiment(c, &model());
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.max_temp_stats.max(), 64.5);
}

// --- Ambient robustness -------------------------------------------------------

class AmbientSweep : public ::testing::TestWithParam<double> {};

TEST_P(AmbientSweep, RegulatesAcrossAmbientTemperatures) {
  // The identified model was calibrated at 25 C ambient; the affine ambient
  // reference makes moderate shifts tolerable for closed-loop regulation.
  const double ambient_c = GetParam();
  const ExperimentConfig c =
      tweaked_platform_config("basicmath", [ambient_c](PlatformDescriptor& d) {
        thermal::FloorplanParams params;
        params.ambient_temp_c = ambient_c;
        d.floorplan = thermal::default_floorplan_spec(params);
      });
  // The plant's boundary node really sits at the swept ambient.
  Simulation simulation(c, &model());
  const thermal::Floorplan& floorplan = simulation.plant().floorplan();
  EXPECT_EQ(floorplan.network.temperatures_c()[floorplan.ambient_node_index],
            ambient_c);
  const RunResult r = run_experiment(c, &model());
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.max_temp_stats.max(), 64.5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Ambients, AmbientSweep,
                         ::testing::Values(15.0, 20.0, 25.0, 30.0));

}  // namespace
}  // namespace dtpm::sim
