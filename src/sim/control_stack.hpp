// The software side of Fig. 3.1: the configured default governor proposes a
// configuration every control interval and the configured thermal policy
// adjusts it. Both layers are constructed by name through the string-keyed
// governors::PolicyRegistry/GovernorRegistry, so user-registered
// implementations are selectable from an ExperimentConfig (or a JSON config
// file) exactly like the built-ins.
#pragma once

#include <memory>

#include "core/dtpm_governor.hpp"
#include "governors/governor.hpp"
#include "sim/config.hpp"
#include "sysid/model_store.hpp"

namespace dtpm::sim {

/// Default governor + thermal policy, evaluated in that order.
class ControlStack {
 public:
  /// Builds the governor and policy the config selects by registry name, or
  /// adopts `policy_override` (any user-defined governors::ThermalPolicy)
  /// when one is supplied. The "dtpm" policy requires `model`. A non-null
  /// `platform`
  /// hands the factories the platform's OPP tables through
  /// PolicyContext::big_opps/little_opps/gpu_opps, so registry policies
  /// propose frequencies from the plant they actually run on; null keeps
  /// the default Exynos-5410 tables.
  ControlStack(const ExperimentConfig& config,
               const sysid::IdentifiedPlatformModel* model,
               std::unique_ptr<governors::ThermalPolicy> policy_override,
               const PlatformDescriptor* platform = nullptr);

  /// One control decision: default proposal, then the policy's adjustment.
  governors::Decision decide(const soc::PlatformView& view);

  /// Non-null when the active policy is the DTPM governor (for diagnostics
  /// and the predicted-temperature trace column).
  core::DtpmGovernor* dtpm() { return dtpm_; }
  const core::DtpmGovernor* dtpm() const { return dtpm_; }

  const governors::ThermalPolicy& policy() const { return *policy_; }

 private:
  std::unique_ptr<governors::Governor> governor_;
  std::unique_ptr<governors::ThermalPolicy> policy_;
  core::DtpmGovernor* dtpm_ = nullptr;
};

}  // namespace dtpm::sim
