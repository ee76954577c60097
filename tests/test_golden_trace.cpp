// Golden-trace regression suite: pins the first kGoldenRows rows of the
// 23-column trace for one Table-6.4 benchmark and one generated scenario,
// both at fixed seeds, and fails on any numeric drift. Any intentional
// change to the plant, sensors, RNG streams, scheduler, or trace schema
// must regenerate the goldens:
//
//   DTPM_REGEN_GOLDEN=1 ./test_golden_trace
//
// then commit the rewritten files under tests/golden/ with the change that
// caused the drift (see tests/golden.hpp and README "Scenario catalog &
// invariants"). The pinned values are written at round-trip precision, so
// comparison is exact on the toolchain that generated them; a libstdc++
// distribution change (RNG or libm) is a legitimate regeneration reason too.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "golden.hpp"
#include "sim/engine.hpp"
#include "sim/scenario_catalog.hpp"
#include "util/csv.hpp"

#ifndef DTPM_GOLDEN_DIR
#error "build must define DTPM_GOLDEN_DIR (see CMakeLists.txt)"
#endif

namespace dtpm::sim {
namespace {

constexpr std::size_t kGoldenRows = 50;

std::string golden_path(const std::string& name) {
  return std::string(DTPM_GOLDEN_DIR) + "/" + name + ".csv";
}

/// Bitwise-intent equality: the prediction columns use NaN as their "no
/// prediction" sentinel, and NaN must compare equal to its reloaded self.
bool same_cell(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// The two pinned runs. Both avoid the identified model so the goldens pin
/// the plant/sensor/governor stack alone, not the calibration artifacts.
ExperimentConfig seed_benchmark_config() {
  ExperimentConfig config;
  config.benchmark = "crc32";
  config.policy_name = "default+fan";
  config.seed = 1;
  return config;
}

ExperimentConfig generated_scenario_config() {
  ExperimentConfig config;
  config.benchmark = "periodic-square#s7";
  config.scenario = std::make_shared<const workload::Benchmark>(
      workload::make_scenario(workload::ScenarioFamily::kPeriodicSquare, 7));
  config.policy_name = "reactive";
  config.seed = 7;
  config.max_sim_time_s = 120.0;
  return config;
}

util::TraceTable head_of_trace(const ExperimentConfig& config) {
  const RunResult result = run_experiment(config);
  EXPECT_TRUE(result.trace.has_value());
  EXPECT_GE(result.trace->size(), kGoldenRows)
      << config.benchmark << " produced too short a trace to pin";
  util::TraceTable head(result.trace->header());
  for (std::size_t r = 0; r < kGoldenRows && r < result.trace->size(); ++r) {
    head.append(result.trace->rows()[r]);
  }
  return head;
}

void compare_against_golden(const ExperimentConfig& config,
                            const std::string& name) {
  const util::TraceTable head = head_of_trace(config);
  const std::string path = golden_path(name);

  if (golden::regenerating()) {
    head.write_csv(path, util::kRoundTripPrecision);
    GTEST_SKIP() << "regenerated " << path << " (" << head.size()
                 << " rows); commit the new golden";
  }

  util::TraceTable golden = [&] {
    try {
      return util::read_csv_table(path);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "cannot load golden " << path << ": " << e.what()
                    << "\nRegenerate with DTPM_REGEN_GOLDEN=1 "
                       "./test_golden_trace";
      return util::TraceTable({"missing"});
    }
  }();
  if (golden.header().size() == 1) return;  // load failed above

  ASSERT_EQ(golden.header(), head.header())
      << "trace schema drifted; regenerate the goldens";
  ASSERT_EQ(golden.size(), head.size());
  for (std::size_t r = 0; r < head.size(); ++r) {
    for (std::size_t c = 0; c < head.header().size(); ++c) {
      // Goldens are written at round-trip precision: any difference is real
      // numeric drift, not formatting.
      if (!same_cell(golden.rows()[r][c], head.rows()[r][c])) {
        ADD_FAILURE() << name << " drifted at row " << r << ", column "
                      << head.header()[c] << ": golden "
                      << golden.rows()[r][c] << " vs current "
                      << head.rows()[r][c];
        return;  // first hit only; one drift implies many downstream
      }
    }
  }
}

TEST(GoldenTrace, SeedBenchmarkPinned) {
  compare_against_golden(seed_benchmark_config(), "crc32_fan_seed1");
}

TEST(GoldenTrace, GeneratedScenarioPinned) {
  compare_against_golden(generated_scenario_config(),
                         "periodic_square_reactive_s7");
}

TEST(GoldenTrace, GoldenFilesRoundTripExactly) {
  // The regeneration path itself must be lossless: write at round-trip
  // precision, read back, compare bit-for-bit.
  const util::TraceTable head = head_of_trace(seed_benchmark_config());
  const std::string path = ::testing::TempDir() + "golden_roundtrip.csv";
  head.write_csv(path, util::kRoundTripPrecision);
  const util::TraceTable reread = util::read_csv_table(path);
  ASSERT_EQ(reread.header(), head.header());
  ASSERT_EQ(reread.size(), head.size());
  for (std::size_t r = 0; r < head.size(); ++r) {
    for (std::size_t c = 0; c < head.header().size(); ++c) {
      ASSERT_TRUE(same_cell(reread.rows()[r][c], head.rows()[r][c]))
          << "row " << r << ", column " << head.header()[c];
    }
  }
}

}  // namespace
}  // namespace dtpm::sim
