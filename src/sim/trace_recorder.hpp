// Per-interval trace recording. This file is the single owner of the trace
// column schema: TraceRecorder::column_names() is the authoritative list,
// and serialization from a typed TraceSample to a row happens in exactly one
// place, so the header documentation can never drift from the emitted table
// again.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "power/resource.hpp"
#include "soc/state.hpp"
#include "thermal/fan.hpp"
#include "util/csv.hpp"

namespace dtpm::sim {

/// One control interval's worth of trace data, in engineering units.
struct TraceSample {
  double time_s = 0.0;  ///< seconds since recording started (post warm-up)
  std::array<double, soc::kBigCoreCount> big_temps_c{};  ///< sensor readings
  double t_max_c = 0.0;              ///< hottest big-core sensor reading
  power::ResourceVector rail_power_w{};  ///< substep-averaged rail powers
  double platform_power_w = 0.0;     ///< true platform power (SoC+fan+fixed)
  soc::SocConfig soc_config;         ///< applied actuation state
  thermal::FanSpeed fan = thermal::FanSpeed::kOff;
  double cpu_max_util = 0.0;
  double gpu_util = 0.0;
  double progress = 0.0;             ///< benchmark progress fraction [0,1]
  double pred_max_ahead_c = 0.0;     ///< prediction made now for t+horizon
  double pred_tmax_for_now_c = 0.0;  ///< prediction made horizon ago for now
  double pred_t0_for_now_c = 0.0;    ///< same, core 0 only
};

/// Integer level of a fan speed (0 = off .. 3 = full), as traced.
int fan_level(thermal::FanSpeed speed);

/// Records TraceSamples into an in-memory TraceTable when enabled.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled);

  /// The 23 trace columns, in emission order:
  ///   time_s, t_big0_c..t_big3_c, t_max_c,
  ///   p_big_w, p_little_w, p_gpu_w, p_mem_w, p_platform_w,
  ///   f_big_mhz, f_little_mhz, f_gpu_mhz,
  ///   cluster (0 = big, 1 = little), online_cores, fan_level (0..3),
  ///   cpu_util, gpu_util, progress,
  ///   pred_max_ahead_c, pred_tmax_for_now_c, pred_t0_for_now_c.
  static const std::vector<std::string>& column_names();

  bool enabled() const { return table_.has_value(); }

  /// Serializes one sample into a row through a caller-owned row buffer
  /// (StepBuffers scratch); no-op when recording is disabled.
  void record(const TraceSample& sample, std::vector<double>& row_scratch);

  /// Hands the accumulated table to the RunResult (empty when disabled).
  std::optional<util::TraceTable> take() { return std::move(table_); }

 private:
  std::optional<util::TraceTable> table_;
};

}  // namespace dtpm::sim
