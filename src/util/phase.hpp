// Per-phase cycle accounting for the control-interval hot path, so "where
// does the interval go" is a measured number (perfbench's sim.phase_* layer
// metrics, which the CI perf gate bounds), not folklore. Phases follow the
// interval anatomy:
//
//   sensor    sensor-bank reads + noise draws
//   policy    governor/policy decisions + actuation
//   schedule  workload staging + the Soc schedule solve (substep 0)
//   plant     thermal substeps, power kernel, commit bookkeeping
//
// Stamps come from the TSC on x86 (a ~20-cycle read, cheap enough to leave
// compiled in behind a runtime flag) and from steady_clock elsewhere; the
// unit is therefore "ticks", comparable only as ratios within one run --
// exactly how perfbench reports them (percent of the profiled runs' ticks).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace dtpm::util {

enum class Phase : unsigned {
  kSensor = 0,
  kPolicy = 1,
  kSchedule = 2,
  kPlant = 3,
};

inline constexpr std::size_t kPhaseCount = 4;
inline constexpr const char* kPhaseNames[kPhaseCount] = {"sensor", "policy",
                                                         "schedule", "plant"};

/// Monotonic tick counter for phase deltas.
inline std::uint64_t cycle_now() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Accumulated ticks per phase.
struct PhaseCycles {
  std::array<std::uint64_t, kPhaseCount> ticks{};

  void add(Phase p, std::uint64_t delta) {
    ticks[static_cast<unsigned>(p)] += delta;
  }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t t : ticks) sum += t;
    return sum;
  }
  PhaseCycles& operator+=(const PhaseCycles& o) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) ticks[i] += o.ticks[i];
    return *this;
  }
};

}  // namespace dtpm::util
