#include "sim/trace_recorder.hpp"

namespace dtpm::sim {

int fan_level(thermal::FanSpeed speed) {
  switch (speed) {
    case thermal::FanSpeed::kOff:
      return 0;
    case thermal::FanSpeed::kLow:
      return 1;
    case thermal::FanSpeed::kHalf:
      return 2;
    case thermal::FanSpeed::kFull:
      return 3;
  }
  return 0;
}

const std::vector<std::string>& TraceRecorder::column_names() {
  static const std::vector<std::string> kColumns{
      "time_s", "t_big0_c", "t_big1_c", "t_big2_c", "t_big3_c", "t_max_c",
      "p_big_w", "p_little_w", "p_gpu_w", "p_mem_w", "p_platform_w",
      "f_big_mhz", "f_little_mhz", "f_gpu_mhz", "cluster", "online_cores",
      "fan_level", "cpu_util", "gpu_util", "progress", "pred_max_ahead_c",
      "pred_tmax_for_now_c", "pred_t0_for_now_c"};
  return kColumns;
}

TraceRecorder::TraceRecorder(bool enabled) {
  if (enabled) table_.emplace(column_names());
}

void TraceRecorder::record(const TraceSample& s,
                           std::vector<double>& row_scratch) {
  if (!table_) return;
  row_scratch.assign(
      {s.time_s, s.big_temps_c[0], s.big_temps_c[1], s.big_temps_c[2],
       s.big_temps_c[3], s.t_max_c,
       s.rail_power_w[0], s.rail_power_w[1], s.rail_power_w[2],
       s.rail_power_w[3], s.platform_power_w,
       s.soc_config.big_freq_hz / 1e6, s.soc_config.little_freq_hz / 1e6,
       s.soc_config.gpu_freq_hz / 1e6,
       s.soc_config.active_cluster == soc::ClusterId::kBig ? 0.0 : 1.0,
       double(s.soc_config.online_big_cores()), double(fan_level(s.fan)),
       s.cpu_max_util, s.gpu_util, s.progress, s.pred_max_ahead_c,
       s.pred_tmax_for_now_c, s.pred_t0_for_now_c});
  table_->append(row_scratch);
}

}  // namespace dtpm::sim
