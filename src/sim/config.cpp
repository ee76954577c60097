#include "sim/config.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/platform_registry.hpp"

namespace dtpm::sim {

std::string resolved_governor_name(const ExperimentConfig& config) {
  return config.governor_name.empty() ? "ondemand" : config.governor_name;
}

PlatformPtr resolved_platform(const ExperimentConfig& config) {
  if (config.platform == nullptr) {
    throw std::invalid_argument("ExperimentConfig: null platform descriptor");
  }
  return config.platform;
}

std::string resolved_platform_name(const ExperimentConfig& config) {
  return resolved_platform(config)->name;
}

bool needs_identified_model(const ExperimentConfig& config) {
  return config.policy_name == "dtpm" || config.observe_predictions;
}

void set_platform(ExperimentConfig& config, const std::string& name) {
  set_platform(config, PlatformRegistry::instance().get(name));
}

void set_platform(ExperimentConfig& config, PlatformPtr platform) {
  if (platform == nullptr) {
    throw std::invalid_argument("set_platform: null platform descriptor");
  }
  // Hand-built descriptors reach the plant only through here; registry and
  // JSON descriptors were validated at registration/parse time but revalidate
  // cheaply.
  platform->validate();
  config.platform = std::move(platform);
  config.dtpm.t_max_c = config.platform->default_t_max_c;
}

int plant_substeps(const ExperimentConfig& config) {
  return std::max(
      1, int(std::lround(config.control_interval_s / config.plant_substep_s)));
}

void set_policy(ExperimentConfig& config, const std::string& name) {
  config.policy_name = name;
}

void apply_smoke_caps(ExperimentConfig& config) {
  config.warmup_s = std::min(config.warmup_s, 2.0);
  config.max_sim_time_s = std::min(config.max_sim_time_s, 15.0);
  config.record_trace = false;
  config.observe_predictions = false;
}

}  // namespace dtpm::sim
