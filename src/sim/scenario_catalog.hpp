// Named registry of scenario families, bridging the procedural
// workload::ScenarioGenerator to the BatchRunner: a catalog maps family
// names to seeded factories and expands {family x policy x seed} grids into
// ExperimentConfigs whose generated benchmarks ride along inline
// (ExperimentConfig::scenario). Together with sim::InvariantChecker this is
// the property-based fuzzing rig: sweep the catalog, then assert the physics
// invariants on every resulting trace.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "workload/benchmark.hpp"
#include "workload/scenario.hpp"

namespace dtpm::sim {

/// Produces one deterministic benchmark per seed.
using ScenarioFactory =
    std::function<workload::Benchmark(std::uint64_t seed)>;

/// Ordered registry of named scenario families.
class ScenarioCatalog {
 public:
  /// A catalog with every workload::ScenarioFamily pre-registered under its
  /// to_string() name, using the given generator knobs.
  static ScenarioCatalog standard(const workload::ScenarioParams& params = {});

  /// Registers a user-defined family; throws std::invalid_argument on an
  /// empty name, a null factory, or a duplicate.
  void register_family(const std::string& name, ScenarioFactory factory);

  bool contains(const std::string& name) const;
  std::size_t size() const { return families_.size(); }

  /// Registered family names, in registration order.
  std::vector<std::string> family_names() const;

  /// Materializes one scenario; throws std::invalid_argument on an unknown
  /// family (and propagates whatever the factory itself throws).
  workload::Benchmark make(const std::string& family,
                           std::uint64_t seed) const;

  /// Expansion grid. Empty `families` means every registered family; empty
  /// `policy_names` and `seeds` fall back to base's policy / seed (mirroring
  /// sim::sweep, so a cleared dimension can never silently empty the grid).
  struct Sweep {
    ExperimentConfig base;  ///< template for every generated config
    std::vector<std::string> families;
    /// PlatformRegistry names; empty falls back to base's platform, so the
    /// catalog expands exactly as before the platform axis existed.
    std::vector<std::string> platforms;
    /// PolicyRegistry names -- user-registered policies sweep the catalog
    /// exactly like the built-ins.
    std::vector<std::string> policy_names;
    std::vector<std::uint64_t> seeds{1, 2, 3};
  };

  /// Expands the grid in row-major order (family outermost, then seed, then
  /// platform, then policy, so one generated benchmark is shared read-only
  /// by every platform x policy cell that runs it). Each config carries its
  /// generated benchmark inline and is labeled "<family>#s<seed>"; the same
  /// grid always expands to the same configs, so catalog batches replay
  /// bit-identically.
  std::vector<ExperimentConfig> expand(const Sweep& sweep) const;

 private:
  const ScenarioFactory& factory_for(const std::string& name) const;

  std::vector<std::pair<std::string, ScenarioFactory>> families_;
};

}  // namespace dtpm::sim
