#include "sim/run_plan.hpp"

#include <algorithm>

#include "sim/batch.hpp"
#include "sim/calibration.hpp"
#include "thermal/fan.hpp"
#include "workload/suite.hpp"

namespace dtpm::sim {

RunPlan::RunPlan(const std::vector<ExperimentConfig>& configs) {
  for (const ExperimentConfig& config : configs) cache_config(config);
}

RunPlan::RunPlan(const std::vector<BatchJob>& jobs) {
  for (const BatchJob& job : jobs) cache_config(job.config);
}

RunPlan::RunPlan(const ExperimentConfig& config)
    : RunPlan(std::vector<ExperimentConfig>{config}) {}

namespace {

/// Equal in everything the Phi/Gamma compile reads: node names, order,
/// capacitances and boundary flags, and the edges. Temperatures and roles
/// do not enter the matrices.
bool same_structure(const thermal::FloorplanSpec& a,
                    const thermal::FloorplanSpec& b) {
  if (a.nodes.size() != b.nodes.size() || !(a.edges == b.edges)) return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].name != b.nodes[i].name ||
        a.nodes[i].capacitance_j_per_k != b.nodes[i].capacitance_j_per_k ||
        a.nodes[i].is_boundary != b.nodes[i].is_boundary) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunPlan::cache_config(const ExperimentConfig& config) {
  cache_engine_for(config);
  cache_platform(resolved_platform(config));
  cache_benchmark_for(config);
}

void RunPlan::cache_platform(const PlatformPtr& platform) {
  if (platform == nullptr || by_descriptor_.count(platform.get()) != 0) {
    return;
  }
  CachedTemplate* cached = find_by_spec(*platform);
  if (cached == nullptr) {
    cached = templates_
                 .emplace_back(std::make_unique<CachedTemplate>(CachedTemplate{
                     {thermal::build_floorplan(platform->floorplan), nullptr},
                     platform,
                     nullptr}))
                 .get();
    cached->plant.propagators = propagators_for(*cached);
  } else {
    if (cached->latest_alias != nullptr) {
      by_descriptor_.erase(cached->latest_alias.get());
    }
    cached->latest_alias = platform;
  }
  by_descriptor_.emplace(platform.get(), cached);
}

void RunPlan::cache_engine_for(const ExperimentConfig& config) {
  if (config.engine != Engine::kPropagator) return;
  const double dt_s = config.control_interval_s / plant_substeps(config);
  if (std::find(substep_dts_.begin(), substep_dts_.end(), dt_s) !=
      substep_dts_.end()) {
    return;
  }
  substep_dts_.push_back(dt_s);
  for (Structure& structure : structures_) compile(structure, dt_s);
}

const thermal::PropagatorTable* RunPlan::propagators_for(
    const CachedTemplate& cached) {
  for (const Structure& structure : structures_) {
    if (same_structure(structure.first->plant.floorplan.spec,
                       cached.plant.floorplan.spec)) {
      return structure.table.get();
    }
  }
  Structure& added = structures_.emplace_back(
      Structure{&cached, std::make_unique<thermal::PropagatorTable>()});
  for (double dt_s : substep_dts_) compile(added, dt_s);
  return added.table.get();
}

void RunPlan::compile(Structure& structure, double dt_s) {
  // The same conductance states a Plant's network passes through: as built,
  // then each fan speed Plant::set_fan can select.
  thermal::Floorplan floorplan = structure.first->plant.floorplan;
  structure.table->add(floorplan.network, dt_s);
  if (!floorplan.has_fan_edge()) return;
  const thermal::Fan fan(structure.first->built_from->fan);
  for (thermal::FanSpeed speed :
       {thermal::FanSpeed::kOff, thermal::FanSpeed::kLow,
        thermal::FanSpeed::kHalf, thermal::FanSpeed::kFull}) {
    floorplan.network.set_edge_conductance(floorplan.fan_edge,
                                           fan.conductance_w_per_k(speed));
    structure.table->add(floorplan.network, dt_s);
  }
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

RunPlan::CachedTemplate* RunPlan::find_by_spec(
    const PlatformDescriptor& platform) const {
  for (const auto& cached : templates_) {
    if (cached->plant.floorplan.spec == platform.floorplan) return cached.get();
  }
  return nullptr;
}

const PlantTemplate* RunPlan::template_for(
    const PlatformDescriptor& platform) const {
  const auto it = by_descriptor_.find(&platform);
  const CachedTemplate* cached =
      it != by_descriptor_.end() ? it->second : find_by_spec(platform);
  return cached != nullptr ? &cached->plant : nullptr;
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
