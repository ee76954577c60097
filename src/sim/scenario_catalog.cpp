#include "sim/scenario_catalog.hpp"

#include <stdexcept>

#include "sim/platform_registry.hpp"
#include "util/names.hpp"

namespace dtpm::sim {

ScenarioCatalog ScenarioCatalog::standard(
    const workload::ScenarioParams& params) {
  ScenarioCatalog catalog;
  for (workload::ScenarioFamily family : workload::all_scenario_families()) {
    catalog.register_family(
        workload::to_string(family), [family, params](std::uint64_t seed) {
          return workload::make_scenario(family, seed, params);
        });
  }
  return catalog;
}

void ScenarioCatalog::register_family(const std::string& name,
                                      ScenarioFactory factory) {
  if (name.empty()) {
    throw std::invalid_argument("ScenarioCatalog: empty family name");
  }
  if (name.find('#') != std::string::npos) {
    // '#' separates family from seed in expand()'s run labels; allowing it
    // in names would make family attribution ambiguous downstream.
    throw std::invalid_argument("ScenarioCatalog: '#' not allowed in " + name);
  }
  if (!factory) {
    throw std::invalid_argument("ScenarioCatalog: null factory for " + name);
  }
  if (contains(name)) {
    throw std::invalid_argument("ScenarioCatalog: duplicate family " + name);
  }
  families_.emplace_back(name, std::move(factory));
}

bool ScenarioCatalog::contains(const std::string& name) const {
  for (const auto& [registered, factory] : families_) {
    if (registered == name) return true;
  }
  return false;
}

std::vector<std::string> ScenarioCatalog::family_names() const {
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const auto& [name, factory] : families_) names.push_back(name);
  return names;
}

const ScenarioFactory& ScenarioCatalog::factory_for(
    const std::string& name) const {
  for (const auto& [registered, factory] : families_) {
    if (registered == name) return factory;
  }
  throw std::invalid_argument(
      "ScenarioCatalog: " +
      util::unknown_name_message("scenario family", name, family_names()));
}

workload::Benchmark ScenarioCatalog::make(const std::string& family,
                                          std::uint64_t seed) const {
  return factory_for(family)(seed);
}

std::vector<ExperimentConfig> ScenarioCatalog::expand(
    const Sweep& sweep) const {
  const std::vector<std::string> families =
      sweep.families.empty() ? family_names() : sweep.families;
  const std::vector<std::string> policies =
      sweep.policy_names.empty()
          ? std::vector<std::string>{sweep.base.policy_name}
          : sweep.policy_names;
  const std::vector<std::uint64_t> seeds =
      sweep.seeds.empty() ? std::vector<std::uint64_t>{sweep.base.seed}
                          : sweep.seeds;
  std::vector<PlatformPtr> platforms;
  for (const std::string& name : sweep.platforms) {
    platforms.push_back(PlatformRegistry::instance().get(name));
  }
  if (platforms.empty()) platforms.push_back(nullptr);  // inherit from base

  std::vector<ExperimentConfig> configs;
  configs.reserve(families.size() * seeds.size() * platforms.size() *
                  policies.size());
  for (const std::string& family : families) {
    const ScenarioFactory& factory = factory_for(family);
    for (std::uint64_t seed : seeds) {
      // One benchmark per (family, seed), shared read-only by every
      // platform x policy cell.
      auto scenario = std::make_shared<const workload::Benchmark>(
          factory(seed));
      for (const PlatformPtr& platform : platforms) {
        for (const std::string& policy : policies) {
          ExperimentConfig config = sweep.base;
          config.benchmark = family + "#s" + std::to_string(seed);
          config.scenario = scenario;
          if (platform != nullptr) set_platform(config, platform);
          set_policy(config, policy);
          config.seed = seed;
          configs.push_back(std::move(config));
        }
      }
    }
  }
  return configs;
}

}  // namespace dtpm::sim
