// Streaming fleet aggregation: one FleetAggregate absorbs a RunResult at a
// time and keeps only O(sketch) state -- counts, exact sums, Welford stats,
// and fixed-size quantile sketches for the percentile columns. This is what
// makes a 100k-device fleet memory-flat: waves of results fold in and are
// dropped, never retained.
//
// Determinism contract: fold_result is called in device (input) order by
// both the serve path and the offline BatchRunner reference path, and
// BatchRunner results are bit-identical to serial execution regardless of
// worker count -- so the aggregate JSON is bit-identical across 1 vs N
// workers and across server restarts.
#pragma once

#include <cstdint>

#include "sim/run_result.hpp"
#include "util/json.hpp"
#include "util/quantile_sketch.hpp"
#include "util/stats.hpp"

namespace dtpm::serve {

class FleetAggregate {
 public:
  /// Folds one completed (or aborted-but-simulated) device run in.
  void fold_result(const sim::RunResult& result);

  /// Folds one failed slot (the run threw; there is no result to read).
  void fold_error();

  std::uint64_t devices() const { return devices_; }
  std::uint64_t failed() const { return failed_; }

  /// Everything a fleet report needs, as one JSON object: counts and rates,
  /// exact energy/violation totals, and mean/p50/p90/p99/max blocks for
  /// peak temperature, execution time, and average platform power.
  util::JsonValue to_json() const;

 private:
  std::uint64_t devices_ = 0;    ///< every folded slot, failed or not
  std::uint64_t failed_ = 0;     ///< slots whose run threw
  std::uint64_t completed_ = 0;  ///< benchmark finished before the time cap
  std::uint64_t runaway_ = 0;    ///< aborted at the platform's ceiling
  std::uint64_t violated_ = 0;   ///< runs with any time above t_max

  double energy_j_ = 0.0;          ///< exact sum of platform_energy_j
  double violation_s_ = 0.0;       ///< exact sum of violation_time_s
  double simulated_time_s_ = 0.0;  ///< exact sum of execution_time_s

  util::RunningStats peak_temp_c_;
  util::RunningStats exec_time_s_;
  util::RunningStats avg_power_w_;
  util::QuantileSketch peak_temp_sketch_;
  util::QuantileSketch exec_time_sketch_;
};

}  // namespace dtpm::serve
