// governors::PolicyRegistry / GovernorRegistry: the string-keyed source of
// truth for selectable policies. Pins the paper builtins and the config
// default, the unknown-name ergonomics, closed-loop selection of a custom
// policy purely by name, and sweeps over registry-only policies.
#include "governors/policy_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>

#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/scenario_catalog.hpp"

namespace dtpm {
namespace {

using governors::GovernorRegistry;
using governors::PolicyContext;
using governors::PolicyRegistry;

TEST(PolicyRegistry, BuiltinsMatchThePaperConfigurations) {
  const std::vector<std::string> names = PolicyRegistry::instance().names();
  const std::vector<std::string> expected = {"default+fan", "dtpm", "no-fan",
                                             "reactive"};
  // names() is sorted; user policies registered by other tests in this
  // binary would only append, so assert the builtins are all present.
  for (const std::string& name : expected) {
    EXPECT_TRUE(PolicyRegistry::instance().contains(name)) << name;
  }
  EXPECT_GE(names.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_FALSE(PolicyRegistry::instance().description("dtpm").empty());
  EXPECT_TRUE(GovernorRegistry::instance().contains("ondemand"));
  EXPECT_EQ(sim::ExperimentConfig{}.policy_name, "default+fan");
}

TEST(PolicyRegistry, UnknownNameSuggestsNearest) {
  try {
    PolicyRegistry::instance().make("reactiv", PolicyContext{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown policy 'reactiv'"), std::string::npos);
    EXPECT_NE(message.find("did you mean 'reactive'?"), std::string::npos);
    EXPECT_NE(message.find("default+fan"), std::string::npos);
  }
}

TEST(PolicyRegistry, DtpmRequiresModel) {
  core::DtpmParams params;
  PolicyContext context;
  context.dtpm = &params;
  EXPECT_THROW(PolicyRegistry::instance().make("dtpm", context),
               std::invalid_argument);
}

TEST(PolicyRegistry, RegistrationValidation) {
  PolicyRegistry& registry = PolicyRegistry::instance();
  EXPECT_THROW(registry.add("", [](const PolicyContext&) {
                 return std::make_unique<governors::NullPolicy>();
               }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("null-factory", nullptr), std::invalid_argument);
  EXPECT_THROW(registry.add("no-fan",
                            [](const PolicyContext&) {
                              return std::make_unique<governors::NullPolicy>();
                            }),
               std::invalid_argument);  // duplicate of a builtin
  EXPECT_FALSE(registry.remove("never-registered"));
}

TEST(PolicyRegistry, PolicyContextParamFallback) {
  const std::map<std::string, double> bag = {{"trip_c", 59.0}};
  PolicyContext context;
  EXPECT_DOUBLE_EQ(context.param("trip_c", 63.0), 63.0);  // no bag at all
  context.params = &bag;
  EXPECT_DOUBLE_EQ(context.param("trip_c", 63.0), 59.0);
  EXPECT_DOUBLE_EQ(context.param("absent", 1.5), 1.5);
}

// Shared with the policy below: the Simulation owns (and destroys) the
// policy instance, so the test observes it through these statics instead of
// keeping a pointer.
std::atomic<long> g_adjust_calls{0};
std::atomic<double> g_constructed_trip_c{0.0};

/// A trivial custom policy: pin the fan off and count adjust() calls.
class CountingPolicy final : public governors::ThermalPolicy {
 public:
  explicit CountingPolicy(double trip_c) { g_constructed_trip_c = trip_c; }

  governors::Decision adjust(const soc::PlatformView&,
                             const governors::Decision& proposal) override {
    ++g_adjust_calls;
    governors::Decision out = proposal;
    out.fan = thermal::FanSpeed::kOff;
    return out;
  }
  std::string_view name() const override { return "counting"; }
};

TEST(PolicyRegistry, CustomPolicySelectableByNameClosedLoop) {
  PolicyRegistry& registry = PolicyRegistry::instance();
  registry.add("counting-test", [](const PolicyContext& context) {
    return std::make_unique<CountingPolicy>(context.param("trip_c", 63.0));
  });
  g_adjust_calls = 0;

  sim::ExperimentConfig config;
  config.benchmark = "crc32";
  config.policy_name = "counting-test";
  config.policy_params = {{"trip_c", 59.5}};
  config.warmup_s = 1.0;
  config.max_sim_time_s = 5.0;
  config.record_trace = false;
  const sim::RunResult result = sim::run_experiment(config);

  EXPECT_DOUBLE_EQ(g_constructed_trip_c, 59.5);  // bag reached the factory
  EXPECT_GE(result.control_steps, 40u);
  // One adjust() per control interval: the policy really ran closed-loop.
  EXPECT_EQ(g_adjust_calls.load(), long(result.control_steps));
  registry.remove("counting-test");
}

TEST(PolicyRegistry, SweepGridCarriesRegistryOnlyPolicies) {
  PolicyRegistry& registry = PolicyRegistry::instance();
  registry.add("sweep-test", [](const PolicyContext&) {
    return std::make_unique<governors::NullPolicy>();
  });

  sim::SweepGrid grid;
  grid.base.benchmark = "crc32";
  grid.policy_names = {"no-fan", "sweep-test"};
  grid.seeds = {1, 2};
  const std::vector<sim::ExperimentConfig> configs = sim::sweep(grid);
  ASSERT_EQ(configs.size(), 4u);
  EXPECT_EQ(configs[0].policy_name, "no-fan");
  EXPECT_EQ(configs[2].policy_name, "sweep-test");

  sim::ScenarioCatalog::Sweep sweep;
  sweep.base.record_trace = false;
  sweep.families = {"bursty"};
  sweep.policy_names = {"sweep-test"};
  sweep.seeds = {5};
  const std::vector<sim::ExperimentConfig> scenario_configs =
      sim::ScenarioCatalog::standard().expand(sweep);
  ASSERT_EQ(scenario_configs.size(), 1u);
  EXPECT_EQ(scenario_configs[0].policy_name, "sweep-test");

  registry.remove("sweep-test");
}

}  // namespace
}  // namespace dtpm
