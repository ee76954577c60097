#include "sim/run_plan.hpp"

#include "sim/batch.hpp"
#include "sim/calibration.hpp"
#include "workload/suite.hpp"

namespace dtpm::sim {

RunPlan::RunPlan(const std::vector<ExperimentConfig>& configs) {
  for (const ExperimentConfig& config : configs) absorb(config);
}

RunPlan::RunPlan(const std::vector<BatchJob>& jobs) {
  for (const BatchJob& job : jobs) absorb(job.config);
}

RunPlan::RunPlan(const ExperimentConfig& config)
    : RunPlan(std::vector<ExperimentConfig>{config}) {}

void RunPlan::absorb(const ExperimentConfig& config) {
  cache_platform(resolved_platform(config));
  cache_benchmark_for(config);
}

void RunPlan::cache_platform(const PlatformPtr& platform) {
  if (platform == nullptr) return;
  for (const auto& [descriptor, floorplan] : floorplans_) {
    if (descriptor == platform) return;  // pointer-identity fast path
  }
  if (floorplan_for(*platform) != nullptr) return;
  floorplans_.emplace_back(platform,
                           thermal::build_floorplan(platform->floorplan));
}

void RunPlan::cache_benchmark_for(const ExperimentConfig& config) {
  if (config.scenario == nullptr) cache_benchmark(config.benchmark);
}

const sysid::IdentifiedPlatformModel* RunPlan::cache_model_for(
    const ExperimentConfig& config) {
  const PlatformPtr platform = resolved_platform(config);
  if (const sysid::IdentifiedPlatformModel* cached = model_for(config)) {
    return cached;
  }
  const sysid::IdentifiedPlatformModel* model =
      &platform_calibration(platform).model;
  models_.emplace_back(platform, model);
  return model;
}

void RunPlan::cache_benchmark(const std::string& name) {
  if (benchmarks_.count(name) != 0) return;
  try {
    benchmarks_.emplace(name, &workload::find_benchmark(name));
  } catch (const std::exception&) {
    // Unknown name: leave uncached so the owning run still throws in its own
    // slot (run_collecting attributes failures per job).
  }
}

const thermal::Floorplan* RunPlan::floorplan_for(
    const PlatformDescriptor& platform) const {
  for (const auto& [descriptor, floorplan] : floorplans_) {
    if (descriptor->floorplan == platform.floorplan) return &floorplan;
  }
  return nullptr;
}

const workload::Benchmark* RunPlan::benchmark_for(
    const std::string& name) const {
  const auto it = benchmarks_.find(name);
  return it == benchmarks_.end() ? nullptr : it->second;
}

const sysid::IdentifiedPlatformModel* RunPlan::model_for(
    const ExperimentConfig& config) const {
  if (models_.empty()) return nullptr;
  const PlatformPtr platform = resolved_platform(config);
  for (const auto& [descriptor, model] : models_) {
    if (descriptor == platform || *descriptor == *platform) return model;
  }
  return nullptr;
}

}  // namespace dtpm::sim
