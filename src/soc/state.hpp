// Platform actuation state and observation view.
//
// SocConfig is everything a governor can actuate on the Exynos 5410:
// which cluster is active (the 5410 runs in cluster-migration mode -- only
// the big or the little cluster at a time, §6.1.1), which big cores are
// online (hotplug), and the three DVFS domain frequencies. PlatformView is
// everything a governor can observe: sensor temperatures, rail powers,
// utilizations and the currently applied config.
#pragma once

#include <array>
#include <cstddef>

#include "power/resource.hpp"

namespace dtpm::soc {

inline constexpr int kBigCoreCount = 4;
inline constexpr int kLittleCoreCount = 4;

enum class ClusterId {
  kBig,
  kLittle,
};

const char* to_string(ClusterId c);

/// Full actuation state of the platform.
struct SocConfig {
  ClusterId active_cluster = ClusterId::kBig;
  /// Hotplug mask of the big cores; ignored while the little cluster is
  /// active. At least one core must stay online when the big cluster is
  /// active.
  std::array<bool, kBigCoreCount> big_core_online{true, true, true, true};
  double big_freq_hz = 1.6e9;
  double little_freq_hz = 1.2e9;
  double gpu_freq_hz = 533e6;

  int online_big_cores() const;
  /// Number of cores available for scheduling under this config.
  int schedulable_cores() const;
};

inline bool operator==(const SocConfig& a, const SocConfig& b) {
  return a.active_cluster == b.active_cluster &&
         a.big_core_online == b.big_core_online &&
         a.big_freq_hz == b.big_freq_hz &&
         a.little_freq_hz == b.little_freq_hz && a.gpu_freq_hz == b.gpu_freq_hz;
}

/// Everything the governors can see at a control interval boundary.
struct PlatformView {
  double time_s = 0.0;
  /// Per-big-core sensor temperatures (the thermal hotspots).
  std::array<double, kBigCoreCount> big_temps_c{};
  /// Per-rail power sensor readings.
  power::ResourceVector rail_power_w{};
  /// External platform meter reading (SoC + fan + display + board).
  double platform_power_w = 0.0;
  /// Max / average per-core utilization on the active CPU cluster.
  double cpu_max_util = 0.0;
  double cpu_avg_util = 0.0;
  double gpu_util = 0.0;
  SocConfig config;

  double max_big_temp_c() const;
};

}  // namespace dtpm::soc
