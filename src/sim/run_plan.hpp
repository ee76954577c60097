// Shared immutable per-batch invariants. A BatchRunner batch typically runs
// hundreds of configs that differ only in benchmark/policy/seed while
// sharing a handful of platforms and identified models; RunPlan hoists the
// work that is identical across those runs out of the per-run constructor:
//
//   * floorplan templates: one per distinct platform in the batch, built
//     (validated + compiled) once and copied into each Plant instead of
//     re-running build_floorplan per run,
//   * benchmark resolution: suite names resolved to Benchmark pointers once
//     per distinct name instead of once per run,
//   * per-platform calibration: the identified model of every platform that
//     needs one, calibrated once (through the process-wide cache) and
//     shared read-only by every run on that platform.
//
// A RunPlan is built once (single-threaded) before the worker pool spawns
// and is then read-only, so workers share it without synchronization. A
// config whose platform diverges from every template simply falls back to
// the build-it-yourself path -- reuse is an optimization, never a behavior
// change, and batches stay bit-identical to serial runs.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sysid/model_store.hpp"
#include "thermal/floorplan.hpp"

namespace dtpm::sim {

struct BatchJob;

class RunPlan {
 public:
  /// Builds the invariants for a batch of `configs`: one floorplan template
  /// per distinct platform and a name -> Benchmark cache for every distinct
  /// suite benchmark. Unknown benchmark names are left uncached so the
  /// per-run resolution still throws inside the owning job's slot.
  explicit RunPlan(const std::vector<ExperimentConfig>& configs);

  /// Convenience: plan for a single config.
  explicit RunPlan(const ExperimentConfig& config);

  /// Plan for a BatchRunner batch, reading each job's config in place (no
  /// per-job config copies).
  explicit RunPlan(const std::vector<BatchJob>& jobs);

  /// Resolves and caches `config`'s suite benchmark (no-op for inline
  /// scenarios and unknown names). Not thread-safe: populate the cache
  /// before sharing the plan across workers.
  void cache_benchmark_for(const ExperimentConfig& config);

  /// Adds a floorplan template for `platform` if none matches yet. Not
  /// thread-safe (construction-time only).
  void cache_platform(const PlatformPtr& platform);

  /// Calibrates (through the process-wide per-platform cache) the
  /// identified model for `config`'s platform and remembers it by platform
  /// name. Not thread-safe (construction-time only).
  const sysid::IdentifiedPlatformModel* cache_model_for(
      const ExperimentConfig& config);

  /// The floorplan template whose spec matches `platform`, else null
  /// (caller builds from its own descriptor).
  const thermal::Floorplan* floorplan_for(
      const PlatformDescriptor& platform) const;

  /// The pre-resolved suite benchmark for `name`, else null (caller resolves
  /// -- and reports errors -- itself). Inline scenarios never consult this.
  const workload::Benchmark* benchmark_for(const std::string& name) const;

  /// The cached identified model for `config`'s platform, else null.
  const sysid::IdentifiedPlatformModel* model_for(
      const ExperimentConfig& config) const;

 private:
  void cache_benchmark(const std::string& name);
  /// Per-config construction step shared by the batch ctors.
  void absorb(const ExperimentConfig& config);

  /// (descriptor, compiled template) per distinct platform in the batch.
  std::vector<std::pair<PlatformPtr, thermal::Floorplan>> floorplans_;
  std::unordered_map<std::string, const workload::Benchmark*> benchmarks_;
  /// (descriptor, identified model) per distinct calibrated platform --
  /// keyed by descriptor identity, never by name alone, so two different
  /// descriptors sharing a name can never swap models.
  std::vector<std::pair<PlatformPtr, const sysid::IdentifiedPlatformModel*>>
      models_;
};

}  // namespace dtpm::sim
