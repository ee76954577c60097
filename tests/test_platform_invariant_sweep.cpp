// Cross-platform fuzzing rig: the 7 procedural scenario families x the four
// paper policies, run on EVERY registered platform through the parallel
// BatchRunner, with every trace checked against the physics invariants.
// This is the acceptance sweep of the platform redesign -- the control
// conclusions only generalize if the closed loop stays physical on plants
// with different thermal coupling and power ratios. The sweep runs on
// every stepping engine, so the propagator's per-interval substep loop is
// checked against the same invariants as the reference integrator.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/batch.hpp"
#include "sim/calibration.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/platform_registry.hpp"
#include "sim/scenario_catalog.hpp"

namespace dtpm {
namespace {

class PlatformInvariantSweepPerEngine
    : public ::testing::TestWithParam<sim::Engine> {};

TEST_P(PlatformInvariantSweepPerEngine, AllFamiliesAllPaperPoliciesAllPlatforms) {
  const std::vector<std::string> platforms =
      sim::PlatformRegistry::instance().names();
  ASSERT_GE(platforms.size(), 3u);

  sim::ScenarioCatalog::Sweep sweep;
  sweep.base.warmup_s = 1.0;
  sweep.base.max_sim_time_s = 8.0;
  sweep.base.record_trace = true;
  sweep.base.engine = GetParam();
  sweep.platforms = platforms;
  sweep.policy_names = {"default+fan", "no-fan", "reactive", "dtpm"};
  sweep.seeds = {1};

  const sim::ScenarioCatalog catalog = sim::ScenarioCatalog::standard();
  const std::vector<sim::ExperimentConfig> configs = catalog.expand(sweep);
  ASSERT_EQ(configs.size(),
            catalog.size() * platforms.size() * sweep.policy_names.size());

  // One identified model per platform (the process-wide cache), shared by
  // every run on that platform -- exactly what the CLI does.
  std::map<std::string, const sysid::IdentifiedPlatformModel*> models;
  for (const std::string& name : platforms) {
    models[name] =
        &sim::platform_calibration(
             sim::PlatformRegistry::instance().get(name))
             .model;
  }
  std::vector<sim::BatchJob> jobs;
  jobs.reserve(configs.size());
  for (const sim::ExperimentConfig& config : configs) {
    jobs.push_back({config, models.at(sim::resolved_platform_name(config))});
  }

  const sim::BatchOutcome outcome = sim::BatchRunner().run_collecting(jobs);
  const sim::InvariantChecker checker;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string label = configs[i].benchmark + " / " +
                              configs[i].policy_name + " / " +
                              sim::resolved_platform_name(configs[i]);
    if (outcome.errors[i]) {
      try {
        std::rethrow_exception(outcome.errors[i]);
      } catch (const std::exception& e) {
        FAIL() << label << " threw: " << e.what();
      }
    }
    const std::vector<sim::InvariantViolation> violations =
        checker.check(configs[i], outcome.results[i]);
    EXPECT_TRUE(violations.empty())
        << label << ":\n"
        << sim::InvariantChecker::describe(violations);
    EXPECT_GT(outcome.results[i].control_steps, 0u) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PlatformInvariantSweepPerEngine,
    ::testing::Values(sim::Engine::kReferenceRk4, sim::Engine::kPropagator),
    [](const ::testing::TestParamInfo<sim::Engine>& engine) {
      return engine.param == sim::Engine::kReferenceRk4 ? "ReferenceRk4"
                                                        : "Propagator";
    });

/// The platforms are genuinely different plants: the same scenario under
/// the same policy draws different power and reaches different temperatures
/// on each of them.
TEST(PlatformInvariantSweep, PlatformsProduceDistinctPhysics) {
  sim::ScenarioCatalog::Sweep sweep;
  sweep.base.warmup_s = 1.0;
  sweep.base.max_sim_time_s = 10.0;
  sweep.base.record_trace = false;
  sweep.families = {"thermal-soak"};
  sweep.platforms = sim::PlatformRegistry::instance().names();
  sweep.policy_names = {"no-fan"};
  sweep.seeds = {3};

  const std::vector<sim::ExperimentConfig> configs =
      sim::ScenarioCatalog::standard().expand(sweep);
  const std::vector<sim::RunResult> results =
      sim::BatchRunner().run(configs);
  ASSERT_EQ(results.size(), sweep.platforms.size());
  for (std::size_t a = 0; a < results.size(); ++a) {
    for (std::size_t b = a + 1; b < results.size(); ++b) {
      EXPECT_NE(results[a].avg_platform_power_w,
                results[b].avg_platform_power_w)
          << sweep.platforms[a] << " vs " << sweep.platforms[b];
      EXPECT_NE(results[a].max_temp_stats.max(),
                results[b].max_temp_stats.max())
          << sweep.platforms[a] << " vs " << sweep.platforms[b];
    }
  }
}

}  // namespace
}  // namespace dtpm
