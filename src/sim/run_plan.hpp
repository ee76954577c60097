// Shared immutable per-batch invariants. A BatchRunner batch typically runs
// hundreds of configs that differ only in benchmark/policy/seed while
// sharing a handful of platforms and identified models; RunPlan hoists the
// work that is identical across those runs out of the per-run constructor:
//
//   * floorplan templates: one per distinct platform in the batch, built
//     (validated + compiled) once and copied into each Plant instead of
//     re-running build_floorplan per run,
//   * propagator matrices: Phi/Gamma depend on the floorplan's structure
//     (topology, capacitances, conductances) and the substep dt, not on its
//     temperatures, so each (structure, fan state, substep dt) is compiled
//     once and every propagator Plant on that structure reads it -- a
//     fleet's hundreds of ambient variants share a handful of entries,
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
#include "sim/plant.hpp"
#include "sysid/model_store.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/lti_propagator.hpp"

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

  /// Everything the constructors cache for one config: its propagator
  /// substep dt (compiled for every cached structure), its platform and its
  /// suite benchmark. Callers that grow a plan between batches (the serve
  /// executors' warm plans) add each config through here. Not thread-safe:
  /// populate the plan before sharing it across workers.
  void cache_config(const ExperimentConfig& config);

  /// Resolves and caches `config`'s suite benchmark (no-op for inline
  /// scenarios and unknown names). Not thread-safe: populate the cache
  /// before sharing the plan across workers.
  void cache_benchmark_for(const ExperimentConfig& config);

  /// Adds a template for `platform` if none matches yet, compiling its
  /// structure's Phi/Gamma for every propagator substep dt a cached config
  /// has recorded. Not thread-safe (construction-time only).
  void cache_platform(const PlatformPtr& platform);

  /// Calibrates (through the process-wide per-platform cache) the
  /// identified model for `config`'s platform and remembers it by platform
  /// name. Not thread-safe (construction-time only).
  const sysid::IdentifiedPlatformModel* cache_model_for(
      const ExperimentConfig& config);

  /// The template cached for `platform`: by descriptor identity, else the
  /// first whose floorplan spec equals its own; null when none matches
  /// (caller builds from its own descriptor).
  const PlantTemplate* template_for(const PlatformDescriptor& platform) const;

  /// The pre-resolved suite benchmark for `name`, else null (caller resolves
  /// -- and reports errors -- itself). Inline scenarios never consult this.
  const workload::Benchmark* benchmark_for(const std::string& name) const;

  /// The cached identified model for `config`'s platform, else null.
  const sysid::IdentifiedPlatformModel* model_for(
      const ExperimentConfig& config) const;

 private:
  void cache_benchmark(const std::string& name);
  /// Records `config`'s plant substep dt when it runs on the propagator
  /// engine, compiling it for every cached structure.
  void cache_engine_for(const ExperimentConfig& config);

  /// One per distinct floorplan spec, heap-held so pointers to it survive
  /// growth. It holds the descriptors by_descriptor_ maps to it, so a mapped
  /// address is never reused by another descriptor: the one it was built
  /// from and the latest other one with an equal spec (a warm server plan
  /// sees fresh but equal descriptors per fleet; keeping only the latest
  /// bounds the map).
  struct CachedTemplate {
    PlantTemplate plant;
    PlatformPtr built_from;
    PlatformPtr latest_alias;
  };
  CachedTemplate* find_by_spec(const PlatformDescriptor& platform) const;

  /// Templates whose floorplan specs are equal up to temperatures share a
  /// table, precompiled in the first one's fan states. A Plant with other
  /// fan conductances misses on those states and compiles them itself.
  struct Structure {
    const CachedTemplate* first;
    std::unique_ptr<thermal::PropagatorTable> table;
  };
  /// Compiles `structure` at dt_s in its as-built and every fan state.
  static void compile(Structure& structure, double dt_s);
  const thermal::PropagatorTable* propagators_for(
      const CachedTemplate& cached);

  std::vector<std::unique_ptr<CachedTemplate>> templates_;
  std::unordered_map<const PlatformDescriptor*, CachedTemplate*>
      by_descriptor_;
  std::vector<Structure> structures_;
  /// Distinct substep dts of the propagator configs recorded so far.
  std::vector<double> substep_dts_;
  std::unordered_map<std::string, const workload::Benchmark*> benchmarks_;
  /// (descriptor, identified model) per distinct calibrated platform --
  /// keyed by descriptor identity, never by name alone, so two different
  /// descriptors sharing a name can never swap models.
  std::vector<std::pair<PlatformPtr, const sysid::IdentifiedPlatformModel*>>
      models_;
};

}  // namespace dtpm::sim
