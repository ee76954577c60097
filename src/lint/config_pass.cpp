// Experiment-config lint: cross-field semantic checks (L3xx) and
// policy-parameter validation against registry-declared schemas (L4xx).
// Runs on a parse-clean ExperimentConfig, so every member is individually
// valid -- these passes catch combinations that are jointly wrong.
#include <cmath>
#include <string>
#include <vector>

#include "governors/policy_registry.hpp"
#include "lint/lint.hpp"
#include "util/json.hpp"
#include "util/names.hpp"

namespace dtpm::lint {

namespace {

std::string num(double value) {
  return util::json_write(util::JsonValue(value), 0);
}

/// L401-L403: the policy_params bag against what the resolved policy and
/// governor declared. Both factories see the same bag, so a key is known
/// when either schema declares it; unknown-key checks need both schemas
/// declared (an undeclared one could consume anything).
void lint_policy_params(const sim::ExperimentConfig& config,
                        const std::string& path, util::DiagnosticSink& sink) {
  if (config.policy_params.empty()) return;
  const std::string& policy = config.policy_name;
  const std::string governor = sim::resolved_governor_name(config);
  const governors::ParamSchema policy_schema =
      governors::PolicyRegistry::instance().param_schema(policy);
  const governors::ParamSchema governor_schema =
      governors::GovernorRegistry::instance().param_schema(governor);

  std::vector<std::string> declared_names;
  for (const governors::ParamSpec& spec : policy_schema.params) {
    declared_names.push_back(spec.name);
  }
  for (const governors::ParamSpec& spec : governor_schema.params) {
    declared_names.push_back(spec.name);
  }

  auto find_spec = [&](const std::string& key) -> const governors::ParamSpec* {
    for (const governors::ParamSpec& spec : policy_schema.params) {
      if (spec.name == key) return &spec;
    }
    for (const governors::ParamSpec& spec : governor_schema.params) {
      if (spec.name == key) return &spec;
    }
    return nullptr;
  };

  if (!policy_schema.declared) {
    sink.note("L403", path + ".policy_params",
              "policy '" + policy +
                  "' declares no parameter schema; these params go unchecked "
                  "(declare one via the registry's ParamSchema overload)");
  }
  if (!governor_schema.declared) {
    sink.note("L403", path + ".policy_params",
              "governor '" + governor +
                  "' declares no parameter schema; these params go unchecked "
                  "(declare one via the registry's ParamSchema overload)");
  }

  for (const auto& [key, value] : config.policy_params) {
    const std::string key_path = path + ".policy_params." + key;
    if (const governors::ParamSpec* spec = find_spec(key)) {
      // L402: outside the range the factory declared it accepts.
      if (value < spec->min_value || value > spec->max_value) {
        sink.error("L402", key_path,
                   "value " + num(value) + " outside [" +
                       num(spec->min_value) + ", " + num(spec->max_value) +
                       "] declared for parameter '" + key + "'");
      }
      continue;
    }
    // L401 only when both consumers declared their schemas -- otherwise the
    // undeclared one might legitimately read the key.
    if (!policy_schema.declared || !governor_schema.declared) continue;
    std::string message;
    if (declared_names.empty()) {
      message = "policy '" + policy + "' and governor '" + governor +
                "' take no parameters; '" + key + "' is ignored";
    } else {
      message = "unknown parameter '" + key + "'";
      const std::string suggestion = util::closest_match(key, declared_names);
      if (!suggestion.empty()) {
        message += ", did you mean '" + suggestion + "'?";
      }
    }
    sink.warning("L401", key_path, message);
  }
}

}  // namespace

void lint_experiment(const sim::ExperimentConfig& config,
                     const std::string& path, util::DiagnosticSink& sink,
                     const LintOptions& options) {
  const sim::PlatformPtr platform = sim::resolved_platform(config);
  lint_platform(*platform, path + ".platform", sink, options);

  // L301: a thermal constraint at or above the runaway-abort ceiling --
  // the abort fires before the policy ever regulates, so every run dies.
  const double abort_c = platform->resolved_runaway_abort_temp_c();
  if (config.dtpm.t_max_c >= abort_c) {
    sink.error("L301", path + ".dtpm.t_max_c",
               "t_max (" + num(config.dtpm.t_max_c) +
                   " C) is at or above the platform's runaway-abort "
                   "temperature (" +
                   num(abort_c) + " C); every run would abort as a runaway");
  } else if (config.dtpm.t_max_c > platform->default_t_max_c) {
    // L305: above the platform's recommended constraint -- legal, but the
    // margin to the abort ceiling shrinks.
    sink.warning("L305", path + ".dtpm.t_max_c",
                 "t_max (" + num(config.dtpm.t_max_c) +
                     " C) exceeds the platform's recommended constraint (" +
                     num(platform->default_t_max_c) + " C)");
  }

  // L303: the plant advances in whole substeps per control interval; a
  // non-divisible pair silently rounds the effective substep.
  const double ratio = config.control_interval_s / config.plant_substep_s;
  if (std::fabs(ratio - std::round(ratio)) > 1e-6 * ratio) {
    sink.warning("L303", path + ".plant_substep_s",
                 "control_interval_s (" + num(config.control_interval_s) +
                     " s) is not a whole number of plant substeps (" +
                     num(config.plant_substep_s) +
                     " s); the simulation rounds the substep count");
  }

  lint_policy_params(config, path, sink);
}

}  // namespace dtpm::lint
