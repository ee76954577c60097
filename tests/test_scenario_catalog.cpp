#include "sim/scenario_catalog.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "sim/batch.hpp"
#include "sim/calibration.hpp"
#include "sim/invariant_checker.hpp"

namespace dtpm::sim {
namespace {

TEST(ScenarioCatalog, StandardRegistersEveryGeneratorFamily) {
  const ScenarioCatalog catalog = ScenarioCatalog::standard();
  EXPECT_GE(catalog.size(), 6u);
  EXPECT_EQ(catalog.size(), workload::all_scenario_families().size());
  for (workload::ScenarioFamily family : workload::all_scenario_families()) {
    EXPECT_TRUE(catalog.contains(workload::to_string(family)));
  }
}

TEST(ScenarioCatalog, RegistrationRejectsDuplicatesAndBadInput) {
  ScenarioCatalog catalog;
  catalog.register_family("custom", [](std::uint64_t seed) {
    return workload::make_scenario(workload::ScenarioFamily::kBursty, seed);
  });
  EXPECT_TRUE(catalog.contains("custom"));
  EXPECT_THROW(catalog.register_family("custom",
                                       [](std::uint64_t) {
                                         return workload::Benchmark{};
                                       }),
               std::invalid_argument);
  EXPECT_THROW(catalog.register_family("", nullptr), std::invalid_argument);
  EXPECT_THROW(catalog.register_family("bad#name",
                                       [](std::uint64_t) {
                                         return workload::Benchmark{};
                                       }),
               std::invalid_argument);
  EXPECT_THROW(catalog.register_family("null-factory", nullptr),
               std::invalid_argument);
  EXPECT_THROW(catalog.make("no-such-family", 1), std::invalid_argument);
}

TEST(ScenarioCatalog, MakeIsDeterministicPerSeed) {
  const ScenarioCatalog catalog = ScenarioCatalog::standard();
  const workload::Benchmark a = catalog.make("bursty", 9);
  const workload::Benchmark b = catalog.make("bursty", 9);
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].cpu_activity, b.phases[i].cpu_activity);
    EXPECT_EQ(a.phases[i].work_fraction, b.phases[i].work_fraction);
  }
  EXPECT_NE(catalog.make("bursty", 10).phases[0].work_fraction,
            a.phases[0].work_fraction);
}

TEST(ScenarioCatalog, ExpandBuildsLabeledInlineConfigs) {
  const ScenarioCatalog catalog = ScenarioCatalog::standard();
  ScenarioCatalog::Sweep sweep;
  sweep.base.record_trace = false;
  sweep.families = {"bursty", "thermal-soak"};
  sweep.policy_names = {"default+fan", "reactive"};
  sweep.seeds = {4, 5};

  const std::vector<ExperimentConfig> configs = catalog.expand(sweep);
  ASSERT_EQ(configs.size(), 2u * 2u * 2u);
  // Row-major: family outermost, then seed, then policy.
  EXPECT_EQ(configs[0].benchmark, "bursty#s4");
  EXPECT_EQ(configs[0].policy_name, "default+fan");
  EXPECT_EQ(configs[1].policy_name, "reactive");
  EXPECT_EQ(configs[2].benchmark, "bursty#s5");
  EXPECT_EQ(configs[4].benchmark, "thermal-soak#s4");
  for (const ExperimentConfig& c : configs) {
    ASSERT_NE(c.scenario, nullptr);
    EXPECT_NO_THROW(c.scenario->validate());
    EXPECT_FALSE(c.record_trace);  // base fields carry through
  }
  // The same (family, seed) scenario is shared across policies, and two
  // expansions of the same grid are interchangeable.
  EXPECT_EQ(configs[0].scenario, configs[1].scenario);
  const std::vector<ExperimentConfig> again = catalog.expand(sweep);
  ASSERT_EQ(again.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(again[i].benchmark, configs[i].benchmark);
    EXPECT_EQ(again[i].scenario->phases.size(),
              configs[i].scenario->phases.size());
  }
}

TEST(ScenarioCatalog, EmptyFamilyListMeansWholeCatalog) {
  const ScenarioCatalog catalog = ScenarioCatalog::standard();
  ScenarioCatalog::Sweep sweep;
  sweep.seeds = {1};
  EXPECT_EQ(catalog.expand(sweep).size(), catalog.size());
}

// The acceptance gate of the scenario-diversity work: every registered
// family, swept through the BatchRunner with three seeds under both the
// stock and the proposed DTPM policy, must produce traces on which every
// physics invariant holds.
TEST(ScenarioCatalog, FullCatalogSweepSatisfiesAllInvariants) {
  workload::ScenarioParams params;
  params.nominal_duration_s = 25.0;  // keep the 40+ runs test-suite friendly
  const ScenarioCatalog catalog = ScenarioCatalog::standard(params);

  ScenarioCatalog::Sweep sweep;
  sweep.base.max_sim_time_s = 120.0;
  sweep.base.record_trace = true;
  sweep.policy_names = {"default+fan", "dtpm"};
  sweep.seeds = {1, 2, 3};

  const std::vector<ExperimentConfig> configs = catalog.expand(sweep);
  ASSERT_GE(catalog.size(), 6u);
  ASSERT_EQ(configs.size(), catalog.size() * 2u * 3u);

  const sysid::IdentifiedPlatformModel& model = default_calibration().model;
  const BatchOutcome outcome =
      BatchRunner().run_collecting([&] {
        std::vector<BatchJob> jobs;
        for (const ExperimentConfig& c : configs) jobs.push_back({c, &model});
        return jobs;
      }());
  ASSERT_TRUE(outcome.all_succeeded());

  const InvariantChecker checker;
  std::set<std::string> checked_families;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(configs[i].benchmark + " / " + configs[i].policy_name);
    const RunResult& result = outcome.results[i];
    ASSERT_TRUE(result.trace.has_value());
    EXPECT_GT(result.trace->size(), 10u);
    const std::vector<InvariantViolation> violations =
        checker.check(configs[i], result);
    EXPECT_TRUE(violations.empty()) << InvariantChecker::describe(violations);
    checked_families.insert(
        configs[i].benchmark.substr(0, configs[i].benchmark.find('#')));
  }
  EXPECT_EQ(checked_families.size(), catalog.size());
}

}  // namespace
}  // namespace dtpm::sim
