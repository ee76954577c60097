#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "sim/calibration.hpp"

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

TEST(Engine, CompletesShortBenchmark) {
  const RunResult r =
      run_experiment(quick_config("dijkstra", "default+fan"));
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.execution_time_s, 30.0);
  EXPECT_LT(r.execution_time_s, 200.0);
  EXPECT_GT(r.avg_platform_power_w, 3.0);
  EXPECT_GT(r.max_temp_stats.count(), 100u);
}

TEST(Engine, TraceHasAllColumnsAndMatchesDuration) {
  const RunResult r =
      run_experiment(quick_config("crc32", "no-fan"));
  ASSERT_TRUE(r.trace.has_value());
  for (const char* col :
       {"time_s", "t_max_c", "p_big_w", "p_platform_w", "f_big_mhz",
        "cluster", "online_cores", "fan_level", "progress"}) {
    EXPECT_NO_THROW(r.trace->column(col)) << col;
  }
  const auto times = r.trace->column("time_s");
  EXPECT_NEAR(times.back(), r.execution_time_s, 0.5);
  // Progress is monotone and ends at completion.
  const auto progress = r.trace->column("progress");
  for (std::size_t i = 1; i < progress.size(); ++i) {
    EXPECT_GE(progress[i], progress[i - 1]);
  }
  EXPECT_NEAR(progress.back(), 1.0, 0.05);
}

TEST(Engine, RecordTraceOffLeavesNoTable) {
  ExperimentConfig c = quick_config("crc32", "no-fan");
  c.record_trace = false;
  EXPECT_FALSE(run_experiment(c).trace.has_value());
}

TEST(Engine, DeterministicForSameSeed) {
  const RunResult a = run_experiment(quick_config("sha", "dtpm"),
                                     &model());
  const RunResult b = run_experiment(quick_config("sha", "dtpm"),
                                     &model());
  EXPECT_DOUBLE_EQ(a.execution_time_s, b.execution_time_s);
  EXPECT_DOUBLE_EQ(a.avg_platform_power_w, b.avg_platform_power_w);
  EXPECT_DOUBLE_EQ(a.max_temp_stats.mean(), b.max_temp_stats.mean());
}

TEST(Engine, SeedChangesBackgroundNoise) {
  ExperimentConfig c1 = quick_config("sha", "no-fan");
  ExperimentConfig c2 = c1;
  c2.seed = 999;
  const RunResult a = run_experiment(c1);
  const RunResult b = run_experiment(c2);
  EXPECT_NE(a.avg_platform_power_w, b.avg_platform_power_w);
}

TEST(Engine, PoliciesProduceDifferentThermalBehaviour) {
  const RunResult no_fan =
      run_experiment(quick_config("basicmath", "no-fan"));
  const RunResult with_fan =
      run_experiment(quick_config("basicmath", "default+fan"));
  const RunResult dtpm = run_experiment(
      quick_config("basicmath", "dtpm"), &model());
  EXPECT_GT(no_fan.max_temp_stats.max(), with_fan.max_temp_stats.max());
  EXPECT_GT(no_fan.max_temp_stats.max(), dtpm.max_temp_stats.max() + 3.0);
  EXPECT_GT(no_fan.violation_time_s, dtpm.violation_time_s);
}

TEST(Engine, DtpmRequiresModel) {
  EXPECT_THROW(run_experiment(quick_config("sha", "dtpm")),
               std::invalid_argument);
  ExperimentConfig c = quick_config("sha", "no-fan");
  c.observe_predictions = true;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(Engine, ObserverAccumulatesPredictionErrors) {
  ExperimentConfig c = quick_config("blowfish", "default+fan");
  c.observe_predictions = true;
  c.observe_horizon_steps = 10;
  const RunResult r = run_experiment(c, &model());
  EXPECT_GT(r.prediction_samples, 1000u);
  EXPECT_GT(r.prediction_mae_c, 0.0);
  EXPECT_LT(r.prediction_mape, 3.0);  // the paper's <3 % average claim
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_NO_THROW(r.trace->column("pred_tmax_for_now_c"));
}

TEST(Engine, PlatformPowerExceedsSocPower) {
  const RunResult r =
      run_experiment(quick_config("gsm", "default+fan"));
  EXPECT_GT(r.avg_platform_power_w,
            r.avg_soc_power_w + 2.9);  // display + board base
  EXPECT_GT(r.avg_soc_power_w, 0.5);
}

TEST(Engine, EnergyConsistentWithAveragePower) {
  const RunResult r = run_experiment(quick_config("qsort", "no-fan"));
  EXPECT_NEAR(r.platform_energy_j,
              r.avg_platform_power_w * r.execution_time_s,
              0.01 * r.platform_energy_j);
}

TEST(Engine, TimeCapTerminatesRun) {
  ExperimentConfig c = quick_config("patricia", "no-fan");
  c.max_sim_time_s = 40.0;  // patricia needs ~300 s
  const RunResult r = run_experiment(c);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.execution_time_s, 40.0);
}

}  // namespace
}  // namespace dtpm::sim
