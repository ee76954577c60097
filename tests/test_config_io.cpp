// sim/config_io: JSON round trips for ExperimentConfig (including the
// inline-scenario path), DtpmParams, and sweep documents, plus the pinned
// "$.path: unknown name, did you mean ...?" error ergonomics.
#include "sim/config_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "serve/fleet_io.hpp"
#include "sim/platform_registry.hpp"
#include "sim/scenario_catalog.hpp"
#include "workload/scenario.hpp"

#ifndef DTPM_GOLDEN_DIR
#error "build must define DTPM_GOLDEN_DIR (see CMakeLists.txt)"
#endif
#ifndef DTPM_CONFIG_DIR
#error "build must define DTPM_CONFIG_DIR (see CMakeLists.txt)"
#endif

namespace dtpm::sim {
namespace {

using util::json_parse;
using util::json_write;

std::string what_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

/// Field-by-field equality through the canonical serialization: two configs
/// that serialize identically are identical as far as config_io is
/// concerned (to_json emits every field).
void expect_same_config(const ExperimentConfig& a, const ExperimentConfig& b) {
  EXPECT_EQ(json_write(to_json(a)), json_write(to_json(b)));
}

TEST(ConfigIo, DefaultExperimentRoundTrips) {
  const ExperimentConfig config;
  const util::JsonValue json = to_json(config);
  // The default platform serializes as its registry name.
  ASSERT_NE(json.find("platform"), nullptr);
  EXPECT_EQ(json.find("platform")->as_string(), "odroid-xu-e");
  const ExperimentConfig reparsed = experiment_from_json(json);
  expect_same_config(config, reparsed);
  EXPECT_EQ(reparsed.policy_name, "default+fan");
  EXPECT_EQ(reparsed.platform, config.platform);
  EXPECT_EQ(reparsed.benchmark, "basicmath");
  EXPECT_EQ(reparsed.seed, 1u);
}

TEST(ConfigIo, ModifiedExperimentRoundTrips) {
  ExperimentConfig config;
  config.benchmark = "templerun";
  config.policy_name = "reactive";
  config.policy_params = {{"trip_c", 61.5}, {"hysteresis_c", 4.0}};
  config.dtpm.t_max_c = 70.0;
  config.dtpm.horizon_steps = 20;
  config.dtpm.min_big_cores = 2;
  config.dtpm.row_policy = core::BudgetRowPolicy::kAllHotspots;
  config.control_interval_s = 0.2;
  config.plant_substep_s = 0.02;
  config.warmup_s = 5.0;
  config.warmup_activity = 0.4;
  config.max_sim_time_s = 120.0;
  config.seed = 99;
  config.record_trace = false;
  config.observe_horizon_steps = 25;
  config.engine = Engine::kPropagator;

  const ExperimentConfig reparsed = experiment_from_json(to_json(config));
  expect_same_config(config, reparsed);
  EXPECT_EQ(reparsed.policy_name, "reactive");
  EXPECT_DOUBLE_EQ(reparsed.policy_params.at("trip_c"), 61.5);
  EXPECT_EQ(reparsed.dtpm.row_policy, core::BudgetRowPolicy::kAllHotspots);
  EXPECT_EQ(reparsed.engine, Engine::kPropagator);
}

TEST(ConfigIo, EngineMemberParsesAndRejectsUnknownNames) {
  const ExperimentConfig parsed =
      experiment_from_json(json_parse(R"({"engine": "propagator"})"));
  EXPECT_EQ(parsed.engine, Engine::kPropagator);
  // An absent member selects the default, the propagator; reference-rk4 is
  // selected by name.
  EXPECT_EQ(experiment_from_json(json_parse("{}")).engine,
            Engine::kPropagator);
  EXPECT_EQ(
      experiment_from_json(json_parse(R"({"engine": "reference-rk4"})")).engine,
      Engine::kReferenceRk4);

  const std::string what = what_of([] {
    experiment_from_json(json_parse(R"({"engine": "propogator"})"));
  });
  EXPECT_NE(what.find("$.engine"), std::string::npos) << what;
  EXPECT_NE(what.find("did you mean 'propagator'?"), std::string::npos)
      << what;
}

TEST(ConfigIo, DtpmParamsRoundTrip) {
  core::DtpmParams params;
  params.t_max_c = 58.0;
  params.horizon_steps = 5;
  params.guard_band_c = 1.25;
  params.delta_hotspot_c = 2.0;
  params.min_big_cores = 1;
  params.recovery_margin_c = 3.0;
  params.restriction_dwell_s = 0.5;
  params.row_policy = core::BudgetRowPolicy::kAllHotspots;
  const core::DtpmParams reparsed = dtpm_params_from_json(to_json(params));
  EXPECT_EQ(json_write(to_json(params)), json_write(to_json(reparsed)));
}

TEST(ConfigIo, InlineScenarioBenchmarkRoundTrips) {
  ExperimentConfig config;
  config.benchmark = "bursty#s42";
  config.scenario = std::make_shared<const workload::Benchmark>(
      workload::make_scenario(workload::ScenarioFamily::kBursty, 42));

  const ExperimentConfig reparsed = experiment_from_json(to_json(config));
  ASSERT_NE(reparsed.scenario, nullptr);
  EXPECT_EQ(reparsed.benchmark, "bursty#s42");
  // The full phase graph survives the trip.
  EXPECT_EQ(json_write(to_json(*config.scenario)),
            json_write(to_json(*reparsed.scenario)));
  EXPECT_NO_THROW(reparsed.scenario->validate());
}

TEST(ConfigIo, ScenarioFamilyShapeGeneratesDeterministically) {
  const ExperimentConfig config = experiment_from_json(json_parse(
      R"({"scenario": {"family": "periodic-square", "seed": 7}})"));
  ASSERT_NE(config.scenario, nullptr);
  EXPECT_EQ(config.benchmark, "periodic-square#s7");
  // Mirrors ScenarioCatalog::expand: the simulation seed defaults to the
  // scenario seed, so this run reproduces the matching sweep row...
  EXPECT_EQ(config.seed, 7u);
  const workload::Benchmark expected =
      workload::make_scenario(workload::ScenarioFamily::kPeriodicSquare, 7);
  EXPECT_EQ(json_write(to_json(expected)),
            json_write(to_json(*config.scenario)));

  // ...unless the document pins its own simulation seed.
  const ExperimentConfig pinned = experiment_from_json(json_parse(
      R"({"scenario": {"family": "periodic-square", "seed": 7}, "seed": 3})"));
  EXPECT_EQ(pinned.seed, 3u);
}

TEST(ConfigIo, ScenarioParamsReachTheGenerator) {
  const ExperimentConfig config = experiment_from_json(json_parse(
      R"({"scenario": {"family": "bursty", "seed": 3,
          "params": {"nominal_duration_s": 30, "intensity": 1.5}}})"));
  workload::ScenarioParams params;
  params.nominal_duration_s = 30.0;
  params.intensity = 1.5;
  const workload::Benchmark expected =
      workload::make_scenario(workload::ScenarioFamily::kBursty, 3, params);
  EXPECT_EQ(json_write(to_json(expected)),
            json_write(to_json(*config.scenario)));
}

TEST(ConfigIo, UnknownPolicyMessagePinned) {
  EXPECT_EQ(what_of([] {
              experiment_from_json(json_parse(R"({"policy": "dtmp"})"));
            }),
            "$.policy: unknown policy 'dtmp', did you mean 'dtpm'? "
            "(valid: default+fan, dtpm, no-fan, reactive)");
}

TEST(ConfigIo, UnknownPolicyInSweepAxisCarriesIndexedPath) {
  const std::string message = what_of([] {
    sweep_from_json(json_parse(
        R"({"policies": ["default+fan", "no-fan", "dtmp"]})"));
  });
  EXPECT_EQ(message,
            "$.policies[2]: unknown policy 'dtmp', did you mean 'dtpm'? "
            "(valid: default+fan, dtpm, no-fan, reactive)");
}

TEST(ConfigIo, UnknownBenchmarkSuggestsNearest) {
  const std::string message = what_of([] {
    experiment_from_json(json_parse(R"({"benchmark": "crc3"})"));
  });
  EXPECT_NE(message.find("$.benchmark: unknown benchmark 'crc3', did you "
                         "mean 'crc32'?"),
            std::string::npos);
  EXPECT_NE(message.find("basicmath"), std::string::npos);  // valid list
}

TEST(ConfigIo, UnknownFieldSuggestsNearest) {
  const std::string message = what_of([] {
    experiment_from_json(json_parse(R"({"plant_substeps_s": 0.01})"));
  });
  EXPECT_EQ(message,
            "$.plant_substeps_s: unknown field 'plant_substeps_s', did you "
            "mean 'plant_substep_s'?");
}

TEST(ConfigIo, TypeAndRangeErrorsCarryPaths) {
  EXPECT_EQ(what_of([] {
              experiment_from_json(json_parse(R"({"seed": "abc"})"));
            }),
            "$.seed: expected an integer, got string");
  EXPECT_NE(what_of([] {
              experiment_from_json(json_parse(R"({"warmup_activity": 2.0})"));
            }).find("$.warmup_activity: value 2 outside [0, 1]"),
            std::string::npos);
  EXPECT_EQ(what_of([] {
              experiment_from_json(json_parse(R"({"record_trace": 1})"));
            }),
            "$.record_trace: expected true or false, got number");
  EXPECT_NE(what_of([] {
              experiment_from_json(
                  json_parse(R"({"dtpm": {"row_policy": "hottest"}})"));
            }).find("$.dtpm.row_policy: unknown row policy 'hottest', did "
                    "you mean 'hottest-core'?"),
            std::string::npos);
}

TEST(ConfigIo, ScenarioShapeValidation) {
  // Exactly one of family/benchmark.
  EXPECT_NE(what_of([] {
              experiment_from_json(json_parse(R"({"scenario": {}})"));
            }).find("$.scenario: expected exactly one of"),
            std::string::npos);
  const std::string message = what_of([] {
    experiment_from_json(
        json_parse(R"({"scenario": {"family": "burstyy"}})"));
  });
  EXPECT_NE(message.find("$.scenario.family: unknown scenario family "
                         "'burstyy', did you mean 'bursty'?"),
            std::string::npos);
}

TEST(ConfigIo, SweepGridRoundTripsAndExpands) {
  SweepSpec spec;
  spec.base.record_trace = false;
  spec.benchmarks = {"crc32", "sha"};
  spec.policies = {"no-fan", "reactive"};
  spec.seeds = {1, 2, 3};
  core::DtpmParams tight;
  tight.t_max_c = 58.0;
  spec.dtpm_grid = {core::DtpmParams{}, tight};

  const SweepSpec reparsed = sweep_from_json(to_json(spec));
  EXPECT_EQ(json_write(to_json(spec)), json_write(to_json(reparsed)));

  const std::vector<ExperimentConfig> configs = reparsed.expand();
  ASSERT_EQ(configs.size(), 2u * 2u * 2u * 3u);
  EXPECT_EQ(configs[0].benchmark, "crc32");
  EXPECT_EQ(configs[0].policy_name, "no-fan");
  EXPECT_FALSE(configs[0].record_trace);  // base inherited
}

TEST(ConfigIo, ScenarioSelectionExpands) {
  const SweepSpec spec = sweep_from_json(json_parse(R"({
    "base": {"policy": "no-fan", "record_trace": false},
    "policies": ["no-fan", "reactive"],
    "scenarios": {"families": ["bursty"], "seeds": [1, 2]}
  })"));
  ASSERT_TRUE(spec.has_scenarios);
  const std::vector<ExperimentConfig> configs = spec.expand();
  ASSERT_EQ(configs.size(), 1u * 2u * 2u);
  EXPECT_EQ(configs[0].benchmark, "bursty#s1");
  ASSERT_NE(configs[0].scenario, nullptr);
  EXPECT_EQ(configs[1].policy_name, "reactive");

  const SweepSpec reparsed = sweep_from_json(to_json(spec));
  EXPECT_EQ(json_write(to_json(spec)), json_write(to_json(reparsed)));
}

TEST(ConfigIo, SweepRejectsMixedAxes) {
  EXPECT_NE(what_of([] {
              sweep_from_json(json_parse(R"({
                "benchmarks": ["crc32"],
                "scenarios": {"families": ["bursty"]}
              })"));
            }).find("$.scenarios: cannot combine"),
            std::string::npos);
  // Top-level seeds/dtpm_grid would be silently ignored by the catalog
  // expansion; they must be rejected, pointing at the right member.
  EXPECT_NE(what_of([] {
              sweep_from_json(json_parse(R"({
                "seeds": [1, 2, 3, 4],
                "scenarios": {"families": ["bursty"]}
              })"));
            }).find("$.seeds: a 'scenarios' sweep takes its seeds from "
                    "$.scenarios.seeds"),
            std::string::npos);
  EXPECT_NE(what_of([] {
              sweep_from_json(json_parse(R"({
                "dtpm_grid": [{"t_max_c": 60}],
                "scenarios": {"families": ["bursty"]}
              })"));
            }).find("$.dtpm_grid"),
            std::string::npos);
}

TEST(ConfigIo, LoadFromFileAndSweepHint) {
  const std::string config_path = ::testing::TempDir() + "experiment.json";
  {
    std::ofstream out(config_path);
    out << R"({
      // comments are allowed in config files
      "benchmark": "crc32",
      "policy": "no-fan",
      "max_sim_time_s": 60
    })";
  }
  const ExperimentConfig config = load_experiment_config(config_path);
  EXPECT_EQ(config.benchmark, "crc32");
  EXPECT_EQ(config.policy_name, "no-fan");
  EXPECT_DOUBLE_EQ(config.max_sim_time_s, 60.0);

  const std::string sweep_path = ::testing::TempDir() + "grid.json";
  {
    std::ofstream out(sweep_path);
    out << R"({"benchmarks": ["crc32"], "policies": ["no-fan"]})";
  }
  // Passing a sweep grid to the experiment loader gets a pointed hint.
  EXPECT_NE(what_of([&] { load_experiment_config(sweep_path); })
                .find("dtpm sweep"),
            std::string::npos);
  EXPECT_EQ(load_sweep_spec(sweep_path).expand().size(), 1u);
}

TEST(ConfigIo, ParseErrorsFromFilesCarryLineColumn) {
  const std::string path = ::testing::TempDir() + "broken.json";
  {
    std::ofstream out(path);
    out << "{\n  \"benchmark\": \"crc32\",\n  \"seed\": 01\n}";
  }
  const std::string message = what_of([&] { load_experiment_config(path); });
  EXPECT_NE(message.find("line 3"), std::string::npos);
  EXPECT_NE(message.find(path), std::string::npos);
}

// --- Member-by-member pin ----------------------------------------------------
//
// Every leaf of five representative documents is mutated (wrong type, +-1e300
// for numbers, 0.5 for integers, an unknown sibling key next to it), and the
// collecting parser's diagnostics for each mutation are pinned, together with
// each document's serialization. The walk only knows JSON, so it pins what
// the parsers accept and report, whatever drives them. Arrays contribute
// element [0] only. Regenerate with DTPM_REGEN_GOLDEN=1 ./test_config_io.

/// One step from a JSON node to a child: an object key, or an array index
/// when `key` is empty.
struct Step {
  std::string key;
  std::size_t index = 0;
};

/// `node` with the value at `steps` replaced by `edit(old value)`.
util::JsonValue edited(const util::JsonValue& node,
                       const std::vector<Step>& steps, std::size_t depth,
                       const std::function<util::JsonValue(
                           const util::JsonValue&)>& edit) {
  if (depth == steps.size()) return edit(node);
  const Step& step = steps[depth];
  if (step.key.empty()) {
    util::JsonArray array = node.as_array();
    array[step.index] = edited(array[step.index], steps, depth + 1, edit);
    return util::JsonValue(std::move(array));
  }
  util::JsonObject object = node.as_object();
  for (auto& [key, value] : object) {
    if (key == step.key) value = edited(value, steps, depth + 1, edit);
  }
  return util::JsonValue(std::move(object));
}

struct Leaf {
  std::vector<Step> steps;
  std::string path;
  util::JsonValue value;
};

void collect_leaves(const util::JsonValue& node, std::vector<Step>& steps,
                    const std::string& path, std::vector<Leaf>& out) {
  if (node.is_object()) {
    for (const auto& [key, value] : node.as_object()) {
      steps.push_back({key, 0});
      collect_leaves(value, steps, path + "." + key, out);
      steps.pop_back();
    }
  } else if (node.is_array()) {
    if (node.as_array().empty()) return;
    steps.push_back({"", 0});
    collect_leaves(node.as_array()[0], steps, path + "[0]", out);
    steps.pop_back();
  } else {
    out.push_back({steps, path, node});
  }
}

using Parse =
    std::function<void(const util::JsonValue&, util::DiagnosticSink&)>;

void record_parse(std::ostringstream& out, const Parse& parse,
                  const util::JsonValue& document) {
  util::CollectingSink sink;
  try {
    parse(document, sink);
  } catch (const std::exception& e) {
    out << "threw: " << e.what() << "\n";
  }
  if (sink.diagnostics().empty()) out << "(clean)\n";
  for (const util::Diagnostic& d : sink.diagnostics()) {
    out << util::format_diagnostic(d) << "\n";
  }
}

void record_root(std::ostringstream& out, const std::string& name,
                 const util::JsonValue& document, const Parse& parse) {
  out << "== " << name << "\n" << json_write(document) << "\n";
  std::vector<Leaf> leaves;
  std::vector<Step> steps;
  collect_leaves(document, steps, "$", leaves);
  for (const Leaf& leaf : leaves) {
    auto mutate = [&](const std::string& label,
                      const util::JsonValue& replacement) {
      out << "-- " << leaf.path << " " << label << "\n";
      record_parse(out, parse,
                   edited(document, leaf.steps, 0,
                          [&](const util::JsonValue&) { return replacement; }));
    };
    mutate("type", leaf.value.is_string() ? util::JsonValue(true)
                                          : util::JsonValue("mutant"));
    if (leaf.value.is_number()) {
      mutate("+1e300", util::JsonValue(1e300));
      mutate("-1e300", util::JsonValue(-1e300));
      if (std::nearbyint(leaf.value.as_number()) == leaf.value.as_number()) {
        mutate("0.5", util::JsonValue(0.5));
      }
    }
    if (!leaf.steps.back().key.empty()) {
      const std::string sibling = leaf.steps.back().key + "x";
      out << "-- " << leaf.path << " sibling '" << sibling << "'\n";
      std::vector<Step> parent(leaf.steps.begin(), leaf.steps.end() - 1);
      record_parse(out, parse,
                   edited(document, parent, 0, [&](const util::JsonValue& v) {
                     util::JsonValue object = v;
                     object.set(sibling, util::JsonValue());
                     return object;
                   }));
    }
  }
}

TEST(ConfigIo, EveryMemberMatchesPinnedGolden) {
  std::ostringstream out;

  ExperimentConfig experiment;
  experiment.benchmark = "bursty#s42";
  experiment.scenario = std::make_shared<const workload::Benchmark>(
      workload::make_scenario(workload::ScenarioFamily::kBursty, 42));
  experiment.policy_name = "reactive";
  experiment.policy_params = {{"trip_c", 61.5}};
  workload::BackgroundParams background;
  background.thread_count = 3;
  background.heavy_load = true;
  experiment.background = background;
  record_root(out, "experiment", to_json(experiment),
              [](const util::JsonValue& json, util::DiagnosticSink& sink) {
                experiment_from_json(json, "$", sink);
              });

  record_root(out, "platform",
              to_json(platform_from_json(to_json(
                  *PlatformRegistry::instance().get("odroid-xu-e")))),
              [](const util::JsonValue& json, util::DiagnosticSink& sink) {
                platform_from_json(json, "$", sink);
              });

  const Parse parse_sweep = [](const util::JsonValue& json,
                               util::DiagnosticSink& sink) {
    sweep_from_json(json, "$", sink);
  };
  SweepSpec grid;
  grid.base.record_trace = false;
  grid.benchmarks = {"crc32", "sha"};
  grid.platforms = {"dragon"};
  grid.policies = {"no-fan", "reactive"};
  grid.seeds = {1, 2};
  grid.dtpm_grid = {core::DtpmParams{}};
  record_root(out, "sweep-grid", to_json(grid), parse_sweep);

  SweepSpec scenarios;
  scenarios.platforms = {"compact"};
  scenarios.policies = {"no-fan"};
  scenarios.has_scenarios = true;
  scenarios.families = {"bursty"};
  scenarios.scenario_seeds = {1, 2};
  record_root(out, "sweep-scenarios", to_json(scenarios), parse_sweep);

  record_root(out, "fleet",
              serve::to_json(serve::load_fleet_spec(
                  std::string(DTPM_CONFIG_DIR) + "/fleet_smoke.json")),
              [](const util::JsonValue& json, util::DiagnosticSink& sink) {
                serve::fleet_from_json(json, "$", sink);
              });

  golden::expect_text_matches(
      std::string(DTPM_GOLDEN_DIR) + "/config_members.txt", out.str(),
      "test_config_io");
}

}  // namespace
}  // namespace dtpm::sim
