// Live workload execution state: tracks completed work against the active
// benchmark's phase schedule and exposes the instantaneous demand that the
// platform model consumes.
#pragma once

#include <vector>

#include "workload/benchmark.hpp"

namespace dtpm::workload {

/// One runnable thread as seen by the scheduler.
struct ThreadDemand {
  double duty = 1.0;          ///< fraction of time runnable
  double cpu_activity = 0.5;  ///< switching activity factor
  double mem_intensity = 0.2;
  /// True for benchmark worker threads (their progress is the performance
  /// metric); false for background threads that only consume resources.
  bool counts_progress = true;
  /// Per-unit costs copied from the owning benchmark (0 for background).
  double cpu_cycles_per_unit = 0.0;
  double mem_seconds_per_unit = 0.0;
};

inline bool operator==(const ThreadDemand& a, const ThreadDemand& b) {
  return a.duty == b.duty && a.cpu_activity == b.cpu_activity &&
         a.mem_intensity == b.mem_intensity &&
         a.counts_progress == b.counts_progress &&
         a.cpu_cycles_per_unit == b.cpu_cycles_per_unit &&
         a.mem_seconds_per_unit == b.mem_seconds_per_unit;
}

/// Aggregate demand for one control interval.
struct Demand {
  std::vector<ThreadDemand> threads;
  double gpu_load = 0.0;            ///< requested GPU utilization [0,1]
  double gpu_cycles_per_unit = 0.0; ///< > 0 if progress is GPU-gated
};

inline bool operator==(const Demand& a, const Demand& b) {
  return a.gpu_load == b.gpu_load &&
         a.gpu_cycles_per_unit == b.gpu_cycles_per_unit &&
         a.threads == b.threads;
}

/// Tracks a single benchmark run.
class WorkloadInstance {
 public:
  explicit WorkloadInstance(const Benchmark& benchmark);

  /// Demand from the current phase, allocation-free: clears and refills
  /// `demand_out` (thread capacity is reused across calls), including the
  /// GPU fields.
  void demand_into(Demand& demand_out) const;

  /// Advances completed work by the given units (computed by the platform's
  /// performance model for the elapsed interval).
  void advance(double work_units);

  bool done() const { return completed_units_ >= benchmark_->total_work_units; }
  double progress_fraction() const;
  const Benchmark& benchmark() const { return *benchmark_; }

 private:
  const Benchmark* benchmark_;
  double completed_units_ = 0.0;
};

}  // namespace dtpm::workload
