// String-keyed registry of platform descriptors, mirroring the policy and
// governor registries of PR 4: anything registered here is selectable by
// name from an ExperimentConfig ("platform": "dragon"), a sweep grid's
// platforms axis, or the `dtpm` CLI, without touching library code.
//
// Pre-registered platforms:
//   odroid-xu-e  the paper's board, and every config's default platform
//   dragon       Tegra-X1-like 4+4 tablet: shared die plate, fanless SKU
//   compact      fanless phone-class SoC with tight skin-temperature headroom
//
// User platforms self-register at static-init time:
//
//   namespace {
//   const dtpm::sim::PlatformRegistration kMine{[] {
//     dtpm::sim::PlatformDescriptor d;       // start from the Odroid plant
//     d.name = "my-soc";
//     d.power.big_core_alpha_c_max = 0.3e-9; // ...tweak as data...
//     return d;
//   }()};
//   }  // namespace
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/platform.hpp"

namespace dtpm::sim {

class PlatformRegistry {
 public:
  /// The process-wide registry with the three built-in platforms.
  static PlatformRegistry& instance();

  /// Registers a descriptor under descriptor.name after validate()-ing it;
  /// throws std::invalid_argument on an invalid descriptor or a duplicate.
  void add(PlatformDescriptor descriptor);

  /// Removes a registered platform (returns false when absent); for tests
  /// that register throwaway platforms.
  bool remove(const std::string& name);

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  ///< sorted
  std::string description(const std::string& name) const;

  /// Shared immutable descriptor; throws std::invalid_argument with the
  /// sorted valid names and a nearest-match suggestion on an unknown name.
  PlatformPtr get(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, PlatformPtr> entries_;
};

/// Self-registration handle: construct one at namespace scope in any TU to
/// make a platform selectable by name before main() runs.
struct PlatformRegistration {
  explicit PlatformRegistration(PlatformDescriptor descriptor);
};

/// Builders of the built-in descriptors, exposed so tests can diff a
/// registry entry against a freshly built one.
PlatformDescriptor odroid_xu_e_platform();
PlatformDescriptor dragon_platform();
PlatformDescriptor compact_platform();

}  // namespace dtpm::sim
