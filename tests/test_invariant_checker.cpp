#include "sim/invariant_checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace_recorder.hpp"

namespace dtpm::sim {
namespace {

std::size_t column(const std::string& name) {
  const auto& names = TraceRecorder::column_names();
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end());
  return std::size_t(it - names.begin());
}

/// A fully consistent synthetic trace row at time t: warm cores, small rail
/// powers, fan off, max OPPs, so every invariant holds by construction.
std::vector<double> valid_row(double t, const ExperimentConfig& config) {
  std::vector<double> row(TraceRecorder::column_names().size(), 0.0);
  row[column("time_s")] = t;
  row[column("t_big0_c")] = 50.0;
  row[column("t_big1_c")] = 51.0;
  row[column("t_big2_c")] = 49.5;
  row[column("t_big3_c")] = 50.5;
  row[column("t_max_c")] = 51.0;
  row[column("p_big_w")] = 2.0;
  row[column("p_little_w")] = 0.2;
  row[column("p_gpu_w")] = 0.5;
  row[column("p_mem_w")] = 0.3;
  row[column("p_platform_w")] = 2.0 + 0.2 + 0.5 + 0.3 +
                                config.platform->platform_load.board_base_w +
                                config.platform->platform_load.display_w;
  row[column("f_big_mhz")] = 1600.0;
  row[column("f_little_mhz")] = 1200.0;
  row[column("f_gpu_mhz")] = 533.0;
  row[column("cluster")] = 0.0;
  row[column("online_cores")] = 4.0;
  row[column("fan_level")] = 0.0;
  row[column("cpu_util")] = 0.8;
  row[column("gpu_util")] = 0.1;
  row[column("progress")] = std::min(1.0, t / 10.0);
  row[column("pred_max_ahead_c")] = 52.0;
  return row;
}

/// A RunResult whose aggregates are consistent with `rows` synthetic rows.
RunResult synthetic_result(std::size_t rows, const ExperimentConfig& config) {
  RunResult result;
  result.completed = true;
  result.execution_time_s = double(rows) * config.control_interval_s;
  util::TraceTable table(TraceRecorder::column_names());
  for (std::size_t r = 0; r < rows; ++r) {
    const std::vector<double> row =
        valid_row(double(r) * config.control_interval_s, config);
    table.append(row);
    result.max_temp_stats.add(row[column("t_max_c")]);
    result.platform_energy_j +=
        row[column("p_platform_w")] * config.control_interval_s;
  }
  result.avg_platform_power_w =
      result.platform_energy_j / result.execution_time_s;
  result.avg_soc_power_w = 3.0;
  result.trace = std::move(table);
  return result;
}

/// Rebuilds the trace with one cell overwritten (TraceTable is append-only).
void corrupt(RunResult& result, std::size_t row, const std::string& col,
             double value) {
  util::TraceTable table(result.trace->header());
  for (std::size_t r = 0; r < result.trace->rows().size(); ++r) {
    std::vector<double> cells = result.trace->rows()[r];
    if (r == row) cells[column(col)] = value;
    table.append(cells);
  }
  result.trace = std::move(table);
}

bool has_invariant(const std::vector<InvariantViolation>& found,
                   const std::string& id) {
  return std::any_of(found.begin(), found.end(),
                     [&](const InvariantViolation& v) {
                       return v.invariant == id;
                     });
}

class InvariantCheckerTest : public ::testing::Test {
 protected:
  ExperimentConfig config_;
  InvariantChecker checker_;
};

TEST_F(InvariantCheckerTest, SyntheticCleanTracePasses) {
  const RunResult result = synthetic_result(20, config_);
  const auto found = checker_.check(config_, result);
  EXPECT_TRUE(found.empty()) << InvariantChecker::describe(found);
}

TEST_F(InvariantCheckerTest, RealRunPasses) {
  ExperimentConfig config;
  config.benchmark = "crc32";
  config.policy_name = "default+fan";
  const RunResult result = run_experiment(config);
  ASSERT_TRUE(result.trace.has_value());
  const auto found = checker_.check(config, result);
  EXPECT_TRUE(found.empty()) << InvariantChecker::describe(found);
}

TEST_F(InvariantCheckerTest, FlagsTemperatureOutsideSensorBounds) {
  RunResult cold = synthetic_result(10, config_);
  corrupt(cold, 3, "t_big1_c", 10.0);  // far below ambient
  EXPECT_TRUE(has_invariant(checker_.check(config_, cold), "temp-range"));

  RunResult hot = synthetic_result(10, config_);
  corrupt(hot, 4, "t_big2_c", 140.0);  // above the sensor ceiling
  EXPECT_TRUE(has_invariant(checker_.check(config_, hot), "temp-range"));
}

TEST_F(InvariantCheckerTest, FlagsMaxColumnMismatch) {
  RunResult result = synthetic_result(10, config_);
  corrupt(result, 2, "t_max_c", 60.0);  // no core reads 60
  EXPECT_TRUE(has_invariant(checker_.check(config_, result), "temp-max"));
}

TEST_F(InvariantCheckerTest, FlagsNegativeRailPower) {
  RunResult result = synthetic_result(10, config_);
  corrupt(result, 5, "p_gpu_w", -0.4);
  EXPECT_TRUE(has_invariant(checker_.check(config_, result), "power-sign"));
}

TEST_F(InvariantCheckerTest, FlagsBrokenPlatformPowerIdentity) {
  RunResult result = synthetic_result(10, config_);
  corrupt(result, 5, "p_platform_w", 20.0);
  EXPECT_TRUE(
      has_invariant(checker_.check(config_, result), "power-identity"));
}

TEST_F(InvariantCheckerTest, PowerIdentityUsesTheConfiguredPlatformLoad) {
  // A derived platform with a brighter display: its fixed load must reach
  // the checker, so a trace consistent with it passes there and breaks the
  // power identity on the default platform.
  PlatformDescriptor bright = *config_.platform;
  bright.platform_load.display_w += 1.0;
  ExperimentConfig config = config_;
  set_platform(config, std::make_shared<const PlatformDescriptor>(bright));
  const RunResult result = synthetic_result(10, config);
  const auto found = checker_.check(config, result);
  EXPECT_TRUE(found.empty()) << InvariantChecker::describe(found);
  EXPECT_TRUE(
      has_invariant(checker_.check(config_, result), "power-identity"));
}

TEST_F(InvariantCheckerTest, FlagsOffTableFrequency) {
  RunResult result = synthetic_result(10, config_);
  corrupt(result, 1, "f_big_mhz", 1650.0);  // not a Table-6.1 entry
  EXPECT_TRUE(has_invariant(checker_.check(config_, result), "opp-table"));
}

TEST_F(InvariantCheckerTest, FlagsActuationOutOfRange) {
  RunResult bad_cluster = synthetic_result(10, config_);
  corrupt(bad_cluster, 0, "cluster", 2.0);
  EXPECT_TRUE(has_invariant(checker_.check(config_, bad_cluster),
                            "actuation-range"));

  RunResult bad_cores = synthetic_result(10, config_);
  corrupt(bad_cores, 0, "online_cores", 0.0);
  EXPECT_TRUE(
      has_invariant(checker_.check(config_, bad_cores), "actuation-range"));
}

TEST_F(InvariantCheckerTest, FlagsNonMonotoneProgress) {
  RunResult result = synthetic_result(10, config_);
  corrupt(result, 6, "progress", 0.01);  // below row 5's progress
  EXPECT_TRUE(has_invariant(checker_.check(config_, result), "progress"));
}

TEST_F(InvariantCheckerTest, FlagsNonFiniteValues) {
  RunResult result = synthetic_result(10, config_);
  corrupt(result, 7, "cpu_util", std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(has_invariant(checker_.check(config_, result), "finite"));
}

TEST_F(InvariantCheckerTest, FlagsBrokenTimeAxis) {
  RunResult result = synthetic_result(10, config_);
  corrupt(result, 4, "time_s", 10.0);  // jumps far beyond one interval
  EXPECT_TRUE(has_invariant(checker_.check(config_, result), "time"));
}

TEST_F(InvariantCheckerTest, FlagsInconsistentAggregates) {
  RunResult result = synthetic_result(10, config_);
  result.platform_energy_j = -1.0;
  EXPECT_TRUE(has_invariant(checker_.check(config_, result), "energy"));

  RunResult late = synthetic_result(10, config_);
  late.violation_time_s = late.execution_time_s + 5.0;
  EXPECT_TRUE(has_invariant(checker_.check(config_, late), "violation-time"));
}

TEST_F(InvariantCheckerTest, DtpmMustActOnSustainedPredictedViolation) {
  ExperimentConfig config;
  config.policy_name = "dtpm";

  // Predicted violation for well over the grace window while the trace
  // shows the platform pinned at the unrestricted maximum: broken governor.
  RunResult lazy = synthetic_result(10, config);
  for (std::size_t r = 2; r < 8; ++r) {
    corrupt(lazy, r, "pred_max_ahead_c", config.dtpm.t_max_c + 5.0);
  }
  EXPECT_TRUE(has_invariant(checker_.check(config, lazy), "dtpm-budget"));

  // Same predictions, but the governor visibly capped the big frequency:
  // the budget contract is honoured.
  RunResult throttled = synthetic_result(10, config);
  for (std::size_t r = 2; r < 8; ++r) {
    corrupt(throttled, r, "pred_max_ahead_c", config.dtpm.t_max_c + 5.0);
    if (r >= 4) corrupt(throttled, r, "f_big_mhz", 1100.0);
  }
  EXPECT_FALSE(
      has_invariant(checker_.check(config, throttled), "dtpm-budget"));

  // A short transient within the grace window is tolerated.
  RunResult transient = synthetic_result(10, config);
  corrupt(transient, 3, "pred_max_ahead_c", config.dtpm.t_max_c + 5.0);
  EXPECT_FALSE(
      has_invariant(checker_.check(config, transient), "dtpm-budget"));
}

TEST_F(InvariantCheckerTest, TracelessRunChecksAggregatesOnly) {
  RunResult result;
  result.completed = true;
  result.execution_time_s = 10.0;
  result.avg_platform_power_w = 5.0;
  result.platform_energy_j = 50.0;
  result.avg_soc_power_w = 1.5;
  const auto found = checker_.check(config_, result);
  EXPECT_TRUE(found.empty()) << InvariantChecker::describe(found);
}

}  // namespace
}  // namespace dtpm::sim
