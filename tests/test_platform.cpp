// The data-driven platform layer: the default-platform identity, the
// registry, spec-built floorplans, descriptor validation, and per-platform
// RunPlan templates and models.
#include "sim/platform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/batch.hpp"
#include "sim/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/platform_registry.hpp"
#include "sim/run_plan.hpp"
#include "thermal/floorplan.hpp"

namespace dtpm {
namespace {

/// Bit-exact row equality that treats the NaN prediction sentinels as equal
/// (NaN != NaN would fail rows that match bit for bit).
bool rows_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
    if (!both_nan && a[i] != b[i]) return false;
  }
  return true;
}

// --- default-platform identity ----------------------------------------------

TEST(PlatformDescriptor, DefaultIsTheOdroid) {
  const sim::PlatformDescriptor d;
  EXPECT_EQ(d.name, "odroid-xu-e");
  EXPECT_TRUE(d.has_fan());
  EXPECT_EQ(d.big_cores, soc::kBigCoreCount);
  EXPECT_NO_THROW(d.validate());
  // The registry's odroid entry matches it, and every config and
  // calibration defaults to that very entry (one shared descriptor).
  const sim::PlatformPtr odroid =
      sim::PlatformRegistry::instance().get("odroid-xu-e");
  EXPECT_TRUE(*odroid == d);
  EXPECT_EQ(sim::ExperimentConfig{}.platform, odroid);
  EXPECT_EQ(sim::CalibrationOptions{}.platform, odroid);
  EXPECT_EQ(sim::default_platform(), odroid);
}

TEST(Floorplan, SpecBuiltDefaultMatchesEnumLayout) {
  const thermal::Floorplan fp = thermal::make_default_floorplan();
  // Role indices resolved from the data-driven spec land exactly on the
  // historical enum positions.
  ASSERT_EQ(fp.core_node_index.size(), 4u);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(fp.core_node_index[c], thermal::Floorplan::big_core_nodes()[c]);
  }
  EXPECT_EQ(fp.little_node_index,
            thermal::node_index(thermal::FloorplanNode::kLittleCluster));
  EXPECT_EQ(fp.gpu_node_index,
            thermal::node_index(thermal::FloorplanNode::kGpu));
  EXPECT_EQ(fp.mem_node_index,
            thermal::node_index(thermal::FloorplanNode::kMem));
  EXPECT_EQ(fp.ambient_node_index,
            thermal::node_index(thermal::FloorplanNode::kAmbient));
  EXPECT_EQ(fp.sensor_node_index, thermal::Floorplan::big_core_node_indices());
  EXPECT_TRUE(fp.has_fan_edge());
  // The fan edge is still the last one (board-to-ambient).
  EXPECT_EQ(fp.fan_edge, fp.network.edge_count() - 1);
}

/// A default config and one that selects odroid-xu-e by name (which also
/// adopts its t_max) run bit-identically.
TEST(PlatformDescriptor, OdroidDescriptorRunMatchesDefaultRun) {
  sim::ExperimentConfig defaulted;
  defaulted.benchmark = "crc32";
  defaulted.warmup_s = 2.0;
  defaulted.max_sim_time_s = 10.0;
  defaulted.seed = 11;

  sim::ExperimentConfig descriptor_built = defaulted;
  sim::set_platform(descriptor_built, "odroid-xu-e");

  const sim::RunResult a = sim::run_experiment(defaulted);
  const sim::RunResult b = sim::run_experiment(descriptor_built);

  ASSERT_TRUE(a.trace.has_value());
  ASSERT_TRUE(b.trace.has_value());
  ASSERT_EQ(a.trace->rows().size(), b.trace->rows().size());
  for (std::size_t r = 0; r < a.trace->rows().size(); ++r) {
    ASSERT_TRUE(rows_equal(a.trace->rows()[r], b.trace->rows()[r]))
        << "row " << r;
  }
  EXPECT_EQ(a.platform_energy_j, b.platform_energy_j);
  EXPECT_EQ(a.execution_time_s, b.execution_time_s);
  EXPECT_EQ(a.max_temp_stats.max(), b.max_temp_stats.max());
}

// --- registry ----------------------------------------------------------------

TEST(PlatformRegistry, BuiltinsAndLookups) {
  sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  const std::vector<std::string> names = registry.names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_TRUE(registry.contains("odroid-xu-e"));
  EXPECT_TRUE(registry.contains("dragon"));
  EXPECT_TRUE(registry.contains("compact"));
  // Sorted names.
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
  // Registry entries equal their builders.
  EXPECT_TRUE(*registry.get("dragon") == sim::dragon_platform());
  EXPECT_TRUE(*registry.get("compact") == sim::compact_platform());

  try {
    registry.get("drago");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("did you mean 'dragon'?"), std::string::npos);
    EXPECT_NE(message.find("compact"), std::string::npos);  // sorted list
  }
}

TEST(PlatformRegistry, AddRemoveAndDuplicates) {
  sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  sim::PlatformDescriptor custom;
  custom.name = "test-throwaway";
  registry.add(custom);
  EXPECT_TRUE(registry.contains("test-throwaway"));
  EXPECT_THROW(registry.add(custom), std::invalid_argument);  // duplicate
  EXPECT_TRUE(registry.remove("test-throwaway"));
  EXPECT_FALSE(registry.remove("test-throwaway"));

  sim::PlatformDescriptor invalid;
  invalid.name = "bad-core-count";
  invalid.big_cores = 8;
  EXPECT_THROW(registry.add(invalid), std::invalid_argument);
  EXPECT_FALSE(registry.contains("bad-core-count"));
}

// --- descriptor validation ---------------------------------------------------

TEST(PlatformDescriptor, ValidationRejectsStructuralErrors) {
  {
    sim::PlatformDescriptor d;
    d.name.clear();
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
  {
    sim::PlatformDescriptor d;
    d.little_cores = 2;
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
  {
    sim::PlatformDescriptor d;
    d.floorplan.sensor_nodes = {"big0", "big1"};  // need one per big core
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
  {
    sim::PlatformDescriptor d;
    d.floorplan.gpu_node = "nonexistent";
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
  {
    sim::PlatformDescriptor d;
    d.big_opps = {{1.6e9, 1.2}, {8e8, 0.9}};  // descending
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
  {
    sim::PlatformDescriptor d;
    d.default_t_max_c = 10.0;  // below ambient
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
  {
    // Two fan-modulated edges.
    sim::PlatformDescriptor d;
    d.floorplan.edges[0].fan_modulated = true;
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
  {
    // No boundary node.
    sim::PlatformDescriptor d;
    for (auto& node : d.floorplan.nodes) node.is_boundary = false;
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
}

TEST(Floorplan, BuildRejectsDuplicateAndUnknownNames) {
  thermal::FloorplanSpec spec = thermal::default_floorplan_spec();
  spec.nodes[1].name = "big0";  // duplicate
  EXPECT_THROW(thermal::build_floorplan(spec), std::invalid_argument);

  spec = thermal::default_floorplan_spec();
  spec.edges[3].node_b = "bigX";
  EXPECT_THROW(thermal::build_floorplan(spec), std::invalid_argument);
}

// --- the alternative platforms ----------------------------------------------

TEST(PlatformDescriptor, DragonAndCompactBuild) {
  const sim::PlatformDescriptor dragon = sim::dragon_platform();
  EXPECT_NO_THROW(dragon.validate());
  EXPECT_FALSE(dragon.has_fan());
  const thermal::Floorplan fp = thermal::build_floorplan(dragon.floorplan);
  EXPECT_FALSE(fp.has_fan_edge());
  EXPECT_EQ(fp.network.node_count(), 10u);
  EXPECT_EQ(fp.network.index_of("plate"), fp.network.index_of("plate"));
  // Fanless cooling: every speed maps to one conductance and zero power.
  const thermal::Fan fan(dragon.fan);
  for (thermal::FanSpeed s :
       {thermal::FanSpeed::kOff, thermal::FanSpeed::kLow,
        thermal::FanSpeed::kHalf, thermal::FanSpeed::kFull}) {
    EXPECT_EQ(fan.conductance_w_per_k(s), dragon.fan.conductance_off);
    EXPECT_EQ(fan.electrical_power_w(s), 0.0);
  }

  const sim::PlatformDescriptor compact = sim::compact_platform();
  EXPECT_NO_THROW(compact.validate());
  EXPECT_FALSE(compact.has_fan());
  EXPECT_LT(compact.default_t_max_c, dragon.default_t_max_c);
  // Tighter headroom and leaner OPPs than the dev board.
  EXPECT_LT(compact.big_opp_table().max().frequency_hz,
            sim::PlatformDescriptor{}.big_opp_table().max().frequency_hz);
}

TEST(PlatformDescriptor, SetPlatformAdoptsConstraint) {
  sim::ExperimentConfig config;
  sim::set_platform(config, "compact");
  EXPECT_EQ(sim::resolved_platform_name(config), "compact");
  EXPECT_DOUBLE_EQ(config.dtpm.t_max_c, 58.0);
}

TEST(PlatformDescriptor, ResolvedPlatformRejectsNull) {
  sim::ExperimentConfig config;
  EXPECT_EQ(sim::resolved_platform(config), config.platform);
  config.platform = nullptr;
  EXPECT_THROW(sim::resolved_platform(config), std::invalid_argument);
  EXPECT_THROW(sim::resolved_platform_name(config), std::invalid_argument);
}

// --- RunPlan per-platform templates ------------------------------------------

TEST(RunPlan, CachesOneFloorplanTemplatePerPlatform) {
  sim::ExperimentConfig odroid;
  sim::ExperimentConfig dragon;
  sim::set_platform(dragon, "dragon");
  sim::ExperimentConfig compact;
  sim::set_platform(compact, "compact");

  const sim::RunPlan plan(
      std::vector<sim::ExperimentConfig>{odroid, dragon, compact, dragon});
  const sim::PlantTemplate* fp_odroid = plan.template_for(*odroid.platform);
  const sim::PlantTemplate* fp_dragon = plan.template_for(*dragon.platform);
  const sim::PlantTemplate* fp_compact = plan.template_for(*compact.platform);
  ASSERT_NE(fp_odroid, nullptr);
  ASSERT_NE(fp_dragon, nullptr);
  ASSERT_NE(fp_compact, nullptr);
  EXPECT_NE(fp_odroid, fp_dragon);
  EXPECT_NE(fp_dragon, fp_compact);
  // A descriptor whose floorplan diverges gets no template.
  sim::PlatformDescriptor other = *odroid.platform;
  other.floorplan.nodes[0].capacitance_j_per_k *= 2.0;
  EXPECT_EQ(plan.template_for(other), nullptr);
}

TEST(RunPlan, CachesOneModelPerPlatform) {
  sim::ExperimentConfig odroid_a;
  sim::set_policy(odroid_a, "dtpm");
  sim::ExperimentConfig odroid_b = odroid_a;
  odroid_b.seed = 2;

  sim::RunPlan plan(std::vector<sim::ExperimentConfig>{odroid_a, odroid_b});
  EXPECT_EQ(plan.model_for(odroid_a), nullptr);  // not cached yet
  const sysid::IdentifiedPlatformModel* model = plan.cache_model_for(odroid_a);
  ASSERT_NE(model, nullptr);
  // Same platform -> same cached model, from the process-wide cache.
  EXPECT_EQ(plan.cache_model_for(odroid_b), model);
  EXPECT_EQ(plan.model_for(odroid_b), model);
  EXPECT_EQ(model, &sim::default_calibration().model);
}

/// A dtpm-policy batch without explicit models succeeds: the BatchRunner
/// calibrates the platform through its RunPlan instead of failing, and the
/// result is bit-identical to passing the model by hand.
TEST(BatchRunner, CalibratesMissingModelsPerPlatform) {
  sim::ExperimentConfig config;
  config.benchmark = "crc32";
  sim::set_policy(config, "dtpm");
  config.warmup_s = 1.0;
  config.max_sim_time_s = 5.0;
  config.record_trace = true;

  const sim::BatchRunner runner(1);
  const std::vector<sim::RunResult> implicit = runner.run({config}, nullptr);
  const std::vector<sim::RunResult> explicit_model =
      runner.run({config}, &sim::default_calibration().model);
  ASSERT_EQ(implicit.size(), 1u);
  ASSERT_TRUE(implicit[0].trace.has_value());
  ASSERT_TRUE(explicit_model[0].trace.has_value());
  ASSERT_EQ(implicit[0].trace->rows().size(),
            explicit_model[0].trace->rows().size());
  for (std::size_t r = 0; r < implicit[0].trace->rows().size(); ++r) {
    ASSERT_TRUE(rows_equal(implicit[0].trace->rows()[r],
                           explicit_model[0].trace->rows()[r]))
        << "row " << r;
  }
}

/// A batch whose plan carries the template must stay bit-identical to a
/// fresh build -- on a non-default platform too.
TEST(RunPlan, TemplateReuseIsBitIdenticalOnDragon) {
  sim::ExperimentConfig config;
  sim::set_platform(config, "dragon");
  config.benchmark = "crc32";
  sim::set_policy(config, "no-fan");
  config.warmup_s = 1.0;
  config.max_sim_time_s = 6.0;

  const sim::RunPlan plan(config);
  const sim::RunResult with_plan = sim::run_experiment(config, nullptr, &plan);
  const sim::RunResult without_plan = sim::run_experiment(config);
  ASSERT_TRUE(with_plan.trace.has_value());
  ASSERT_TRUE(without_plan.trace.has_value());
  ASSERT_EQ(with_plan.trace->rows().size(),
            without_plan.trace->rows().size());
  for (std::size_t r = 0; r < with_plan.trace->rows().size(); ++r) {
    ASSERT_TRUE(rows_equal(with_plan.trace->rows()[r],
                           without_plan.trace->rows()[r]))
        << "row " << r;
  }
}

}  // namespace
}  // namespace dtpm
