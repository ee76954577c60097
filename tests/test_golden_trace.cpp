// Golden-trace regression suite: pins the first kGoldenRows rows of the
// 23-column trace for one Table-6.4 benchmark and one generated scenario,
// both at fixed seeds, and fails on any numeric drift. A trace under a
// scripted policy that walks 4, 3 and 1 online big cores, a cluster
// migration and every fan speed is pinned once per stepping engine, and so
// is the summary of a propagator run whose benchmark finishes mid-interval.
// Any intentional change to the plant, sensors, RNG streams, scheduler, or
// trace schema must regenerate the goldens:
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
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "governors/governor.hpp"
#include "serve/protocol.hpp"
#include "sim/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/platform_registry.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/simulation.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

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
/// the plant/sensor/governor stack alone, not the calibration artifacts, and
/// both name their engine so the goldens stay put whatever the default is.
ExperimentConfig seed_benchmark_config() {
  ExperimentConfig config;
  config.benchmark = "crc32";
  config.engine = Engine::kReferenceRk4;
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
  config.engine = Engine::kReferenceRk4;
  config.seed = 7;
  config.max_sim_time_s = 120.0;
  return config;
}

/// Walks the plant through every power-model branch the per-substep loop
/// distinguishes, kIntervalsPerPhase control intervals per
/// phase: the big cluster with 4, 3 and 1 cores online, the little cluster
/// (a cluster migration, so a migration stall), then back on the big
/// cluster through every fan speed (on the propagator each new fan state
/// compiles its own matrices). Frequencies stay as the default governor
/// proposes.
class ScriptedPolicy final : public governors::ThermalPolicy {
 public:
  governors::Decision adjust(const soc::PlatformView& /*view*/,
                             const governors::Decision& proposal) override {
    governors::Decision out = proposal;
    soc::SocConfig& soc = out.soc;
    soc.active_cluster = soc::ClusterId::kBig;
    soc.big_core_online = {true, true, true, true};
    out.fan = thermal::FanSpeed::kOff;
    switch (calls_++ / kIntervalsPerPhase) {
      case 0:
        break;
      case 1:
        soc.big_core_online = {true, true, true, false};
        break;
      case 2:
        soc.big_core_online = {true, false, false, false};
        break;
      case 3:
        soc.active_cluster = soc::ClusterId::kLittle;
        break;
      case 4:
        out.fan = thermal::FanSpeed::kLow;
        break;
      case 5:
        out.fan = thermal::FanSpeed::kHalf;
        break;
      case 6:
        out.fan = thermal::FanSpeed::kFull;
        break;
      default:
        break;
    }
    return out;
  }
  std::string_view name() const override { return "scripted"; }

 private:
  static constexpr int kIntervalsPerPhase = 6;
  int calls_ = 0;
};

ExperimentConfig scripted_config(Engine engine) {
  ExperimentConfig config;
  config.benchmark = "crc32";
  config.engine = engine;
  config.seed = 5;
  config.warmup_s = 0.0;
  config.max_sim_time_s = 8.0;
  return config;
}

RunResult run_scripted(const ExperimentConfig& config) {
  Simulation sim(config, nullptr, std::make_unique<ScriptedPolicy>());
  while (sim.step()) {
  }
  return sim.finish();
}

util::TraceTable head_of_trace(const ExperimentConfig& config,
                               bool scripted = false) {
  const RunResult result =
      scripted ? run_scripted(config) : run_experiment(config);
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
                            const std::string& name, bool scripted = false) {
  const util::TraceTable head = head_of_trace(config, scripted);
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

class ScriptedPolicyPerEngine : public ::testing::TestWithParam<Engine> {};

TEST_P(ScriptedPolicyPerEngine, TracePinned) {
  const std::string engine =
      GetParam() == Engine::kReferenceRk4 ? "reference" : "propagator";
  compare_against_golden(scripted_config(GetParam()),
                         engine + "_scripted_crc32", /*scripted=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ScriptedPolicyPerEngine,
    ::testing::Values(Engine::kReferenceRk4, Engine::kPropagator),
    [](const ::testing::TestParamInfo<Engine>& engine) {
      return engine.param == Engine::kReferenceRk4 ? "ReferenceRk4"
                                                   : "Propagator";
    });

// The cross-engine oracle: the scripted run, live on both engines, must
// agree on every sensor, frequency, cluster, core, fan, utilisation,
// progress and prediction cell exactly, and on the five power columns to
// 1e-12 relative (the propagator tracks RK4 to floating-point rounding, and
// the power model reads the true temperatures). This is what checks a
// regenerated propagator golden against reference-rk4.
TEST(GoldenTrace, ScriptedRunAgreesAcrossEngines) {
  const RunResult reference =
      run_scripted(scripted_config(Engine::kReferenceRk4));
  const RunResult propagator =
      run_scripted(scripted_config(Engine::kPropagator));
  ASSERT_TRUE(reference.trace.has_value());
  ASSERT_TRUE(propagator.trace.has_value());
  const util::TraceTable& a = *reference.trace;
  const util::TraceTable& b = *propagator.trace;
  ASSERT_EQ(a.header(), b.header());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), kGoldenRows);
  int power_columns = 0;
  for (std::size_t c = 0; c < a.header().size(); ++c) {
    const std::string& column = a.header()[c];
    const bool power = column.rfind("p_", 0) == 0;
    power_columns += power ? 1 : 0;
    for (std::size_t r = 0; r < a.size(); ++r) {
      const double x = a.rows()[r][c];
      const double y = b.rows()[r][c];
      if (power) {
        ASSERT_LE(std::abs(x - y), 1e-12 * std::abs(x))
            << column << " row " << r << ": " << x << " vs " << y;
      } else {
        ASSERT_TRUE(same_cell(x, y))
            << column << " row " << r << ": " << x << " vs " << y;
      }
    }
  }
  EXPECT_EQ(power_columns, 5);
}

/// The run-summary cells of `dtpm run`/`sweep`'s summary.csv, at its 10
/// significant digits.
std::string summary_cells(const RunResult& r) {
  std::ostringstream out;
  out << std::setprecision(10) << r.completed << ',' << r.execution_time_s
      << ',' << r.avg_platform_power_w << ',' << r.avg_soc_power_w << ','
      << r.max_temp_stats.max() << ',' << r.max_temp_stats.mean() << ','
      << r.violation_time_s << ',' << r.control_steps << ','
      << r.platform_energy_j;
  return out.str();
}

// The cross-engine oracle over the paper's comparison (§6.2): every
// registry platform under the four paper policies, on a short Table-6.4
// benchmark at full length, with each platform's calibrated model for dtpm.
// The propagator (the default) and reference-rk4 must produce the same
// summary at summary.csv's precision, the precision at which the full
// 15-benchmark sweep agrees on both engines.
TEST(GoldenTrace, PaperPoliciesAgreeAcrossEngines) {
  const std::vector<std::string> policies = {"default+fan", "no-fan",
                                             "reactive", "dtpm"};
  int dtpm_capped = 0;
  for (const std::string& name : PlatformRegistry::instance().names()) {
    const PlatformPtr platform = PlatformRegistry::instance().get(name);
    const sysid::IdentifiedPlatformModel& model =
        platform_calibration(platform).model;
    std::string no_fan;
    for (const std::string& policy : policies) {
      ExperimentConfig config;
      set_platform(config, platform);
      config.benchmark = "matmul";
      config.policy_name = policy;
      config.record_trace = false;
      config.engine = Engine::kReferenceRk4;
      const RunResult reference = run_experiment(config, &model);
      config.engine = Engine::kPropagator;
      const RunResult propagator = run_experiment(config, &model);
      ASSERT_TRUE(reference.completed) << name << ' ' << policy;
      EXPECT_EQ(summary_cells(reference), summary_cells(propagator))
          << name << ' ' << policy;
      if (policy == "no-fan") no_fan = summary_cells(reference);
      if (policy == "dtpm") {
        dtpm_capped += summary_cells(reference) != no_fan ? 1 : 0;
      }
    }
  }
  // The comparison must reach the governor's capping path somewhere.
  EXPECT_GT(dtpm_capped, 0);
}

TEST(GoldenTrace, PropagatorRunSummaryPinned) {
  // The benchmark completes inside a control interval, so the last
  // interval ends early: the pin covers the partial-interval accounting.
  ExperimentConfig config;
  config.benchmark = "basicmath";
  config.policy_name = "reactive";
  config.engine = Engine::kPropagator;
  config.seed = 11;
  config.warmup_s = 2.0;
  config.record_trace = false;
  RunResult result = run_experiment(config);
  ASSERT_TRUE(result.completed);
  ASSERT_LT(result.plant_substeps,
            result.control_steps * std::size_t(plant_substeps(config)))
      << "the benchmark must finish mid-interval";
  result.wall_time_s = 0.0;  // the only host-dependent member
  golden::expect_text_matches(
      std::string(DTPM_GOLDEN_DIR) + "/propagator_run_summary.json",
      util::json_write(serve::run_summary_json(result)) + "\n",
      "test_golden_trace");
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
