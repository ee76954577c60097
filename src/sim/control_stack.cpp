#include "sim/control_stack.hpp"

#include <optional>
#include <utility>

#include "governors/policy_registry.hpp"

namespace dtpm::sim {

namespace {

governors::PolicyContext make_context(
    const ExperimentConfig& config,
    const sysid::IdentifiedPlatformModel* model) {
  governors::PolicyContext context;
  context.model = model;
  context.dtpm = &config.dtpm;
  context.params = &config.policy_params;
  return context;
}

}  // namespace

ControlStack::ControlStack(
    const ExperimentConfig& config,
    const sysid::IdentifiedPlatformModel* model,
    std::unique_ptr<governors::ThermalPolicy> policy_override,
    const PlatformDescriptor* platform) {
  governors::PolicyContext context = make_context(config, model);
  // The tables only need to outlive the factory calls below; factories copy
  // what they keep.
  std::optional<power::OppTable> big, little, gpu;
  if (platform != nullptr) {
    big.emplace(platform->big_opp_table());
    little.emplace(platform->little_opp_table());
    gpu.emplace(platform->gpu_opp_table());
    context.big_opps = &*big;
    context.little_opps = &*little;
    context.gpu_opps = &*gpu;
  }
  governor_ = governors::GovernorRegistry::instance().make(
      resolved_governor_name(config), context);
  policy_ = policy_override != nullptr
                ? std::move(policy_override)
                : governors::PolicyRegistry::instance().make(
                      config.policy_name, context);
  dtpm_ = dynamic_cast<core::DtpmGovernor*>(policy_.get());
}

governors::Decision ControlStack::decide(const soc::PlatformView& view) {
  const governors::Decision proposal = governor_->decide(view);
  return policy_->adjust(view, proposal);
}

}  // namespace dtpm::sim
