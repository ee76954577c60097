#include "soc/soc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "power/dynamic_power.hpp"

namespace dtpm::soc {

Soc::Soc(const PlantPowerParams& power_params, const PerfParams& perf_params)
    : Soc(power_params, perf_params, power::big_cluster_opp_table(),
          power::little_cluster_opp_table(), power::gpu_opp_table()) {}

Soc::Soc(const PlantPowerParams& power_params, const PerfParams& perf_params,
         power::OppTable big_opps, power::OppTable little_opps,
         power::OppTable gpu_opps)
    : power_params_(power_params),
      perf_params_(perf_params),
      big_opps_(std::move(big_opps)),
      little_opps_(std::move(little_opps)),
      gpu_opps_(std::move(gpu_opps)),
      big_leak_(power_params.big_leakage),
      little_leak_(power_params.little_leakage),
      gpu_leak_(power_params.gpu_leakage),
      mem_leak_(power_params.mem_leakage) {
  config_.big_freq_hz = big_opps_.max().frequency_hz;
  config_.little_freq_hz = little_opps_.max().frequency_hz;
  config_.gpu_freq_hz = gpu_opps_.max().frequency_hz;
  v_big_ = big_opps_.max().voltage_v;
  v_little_ = little_opps_.max().voltage_v;
  v_gpu_ = gpu_opps_.max().voltage_v;
}

bool operator==(const PlantPowerParams& a, const PlantPowerParams& b) {
  return a.big_leakage == b.big_leakage &&
         a.little_leakage == b.little_leakage &&
         a.gpu_leakage == b.gpu_leakage && a.mem_leakage == b.mem_leakage &&
         a.big_core_alpha_c_max == b.big_core_alpha_c_max &&
         a.little_core_alpha_c_max == b.little_core_alpha_c_max &&
         a.gpu_alpha_c_max == b.gpu_alpha_c_max &&
         a.big_uncore_alpha_c == b.big_uncore_alpha_c &&
         a.little_uncore_alpha_c == b.little_uncore_alpha_c &&
         a.big_idle_activity == b.big_idle_activity &&
         a.little_idle_activity == b.little_idle_activity &&
         a.gpu_idle_util == b.gpu_idle_util &&
         a.mem_bandwidth_cap == b.mem_bandwidth_cap &&
         a.offline_core_leakage_fraction == b.offline_core_leakage_fraction &&
         a.inactive_cluster_leakage_fraction ==
             b.inactive_cluster_leakage_fraction &&
         a.mem_dynamic_max_w == b.mem_dynamic_max_w &&
         a.mem_base_w == b.mem_base_w &&
         a.mem_gpu_traffic_weight == b.mem_gpu_traffic_weight &&
         a.mem_nominal_voltage_v == b.mem_nominal_voltage_v &&
         a.mem_nominal_frequency_hz == b.mem_nominal_frequency_hz;
}

bool operator==(const PerfParams& a, const PerfParams& b) {
  return a.big_ipc_scale == b.big_ipc_scale &&
         a.little_ipc_scale == b.little_ipc_scale &&
         a.cluster_switch_stall_s == b.cluster_switch_stall_s;
}

void Soc::apply(const SocConfig& config) {
  // The common steady-state case: the governor re-applies the config it
  // already holds. An identical config was validated when first applied and
  // resolves to the same voltages, so the three OPP linear scans -- the
  // dominant cost in a tight control loop -- can be skipped outright.
  if (config == config_) return;
  if (!big_opps_.contains(config.big_freq_hz)) {
    throw std::invalid_argument("Soc::apply: big frequency not an OPP");
  }
  if (!little_opps_.contains(config.little_freq_hz)) {
    throw std::invalid_argument("Soc::apply: little frequency not an OPP");
  }
  if (!gpu_opps_.contains(config.gpu_freq_hz)) {
    throw std::invalid_argument("Soc::apply: gpu frequency not an OPP");
  }
  if (config.active_cluster == ClusterId::kBig &&
      config.online_big_cores() == 0) {
    throw std::invalid_argument("Soc::apply: no big core online");
  }
  if (config.active_cluster != config_.active_cluster) {
    migration_stall_remaining_s_ += perf_params_.cluster_switch_stall_s;
  }
  config_ = config;
  v_big_ = big_opps_.voltage_at(config_.big_freq_hz);
  v_little_ = little_opps_.voltage_at(config_.little_freq_hz);
  v_gpu_ = gpu_opps_.voltage_at(config_.gpu_freq_hz);
}

SocStepResult Soc::step(const workload::Demand& foreground,
                        const std::vector<workload::ThreadDemand>& background,
                        const std::array<double, kBigCoreCount>& big_temps_c,
                        double little_temp_c, double gpu_temp_c,
                        double mem_temp_c, double dt_s) {
  if (dt_s <= 0.0) throw std::invalid_argument("Soc::step: dt must be > 0");
  solve_schedule(foreground, background);
  SocStepResult out;
  step_captured(big_temps_c, little_temp_c, gpu_temp_c, mem_temp_c, dt_s,
                out);
  return out;
}

void Soc::solve_schedule(
    const workload::Demand& foreground,
    const std::vector<workload::ThreadDemand>& background) {
  const bool big_active = config_.active_cluster == ClusterId::kBig;
  const double f_cpu = big_active ? config_.big_freq_hz : config_.little_freq_hz;
  const double v_cpu = big_active ? v_big_ : v_little_;
  const double ipc = big_active ? perf_params_.big_ipc_scale
                                : perf_params_.little_ipc_scale;
  const double core_alpha_c_max = big_active
                                      ? power_params_.big_core_alpha_c_max
                                      : power_params_.little_core_alpha_c_max;
  const double idle_activity = big_active ? power_params_.big_idle_activity
                                          : power_params_.little_idle_activity;

  // --- Thread placement on the active cluster ----------------------------
  all_threads_scratch_.clear();
  all_threads_scratch_.insert(all_threads_scratch_.end(),
                              foreground.threads.begin(),
                              foreground.threads.end());
  all_threads_scratch_.insert(all_threads_scratch_.end(), background.begin(),
                              background.end());
  place_threads_into(all_threads_scratch_, config_, placement_scratch_,
                     order_scratch_);
  const Placement& placement = placement_scratch_;
  schedule_.cpu_max_util = placement.max_util;
  schedule_.cpu_avg_util = placement.avg_util;

  // --- GPU demand (needed before the memory contention computation) ------
  const double gpu_demand_hz =
      foreground.gpu_load * gpu_opps_.max().frequency_hz;
  const double gpu_achieved_hz = std::min(gpu_demand_hz, config_.gpu_freq_hz);
  const double gpu_busy =
      std::min(gpu_achieved_hz / config_.gpu_freq_hz +
                   power_params_.gpu_idle_util,
               1.0);
  schedule_.gpu_busy = gpu_busy;

  // --- Memory bandwidth saturation ---------------------------------------
  // Each foreground work unit occupies the DDR for mem_seconds_per_unit at
  // full bandwidth, so the feasibility constraint is
  //     sum_t rate_t * m_t + bg_traffic <= cpu_cap,
  // with rate_t = share_t / (c_t/(ipc*f) + m_t * x) and x >= 1 a common
  // queueing-slowdown factor. We find the smallest feasible x by fixed-point
  // iteration. rate_t stays monotone non-decreasing in f (saturating at the
  // bandwidth bound), which is what makes DVFS throttling nearly free for
  // bandwidth-bound multithreaded workloads -- the paper's matmul behaviour.
  const double gpu_bw = gpu_busy * power_params_.mem_gpu_traffic_weight;
  const double cpu_cap =
      std::max(0.15, power_params_.mem_bandwidth_cap - gpu_bw);
  constexpr double kBackgroundBwCoeff = 0.3;
  double bg_bw = 0.0;
  for (const auto& placed : placement.threads) {
    if (placed.demand.cpu_cycles_per_unit <= 0.0) {
      bg_bw += placed.share * placed.demand.mem_intensity * kBackgroundBwCoeff;
    }
  }
  auto fg_bw_demand = [&](double x) {
    double d = 0.0;
    for (const auto& placed : placement.threads) {
      const auto& td = placed.demand;
      if (td.cpu_cycles_per_unit <= 0.0 || td.mem_seconds_per_unit <= 0.0) {
        continue;
      }
      const double t_unit =
          td.cpu_cycles_per_unit / (ipc * f_cpu) + td.mem_seconds_per_unit * x;
      d += placed.share / t_unit * td.mem_seconds_per_unit;
    }
    return d;
  };
  // Demand is strictly decreasing in the slowdown x, so bisection gives the
  // exact equilibrium; the precision matters because any residual would make
  // progress non-monotone in frequency.
  const double fg_bw_unit = fg_bw_demand(1.0);
  double slowdown = 1.0;
  double fg_bw_final = fg_bw_unit;
  if (fg_bw_unit + bg_bw > cpu_cap) {
    double lo = 1.0, hi = 2.0;
    while (fg_bw_demand(hi) + bg_bw > cpu_cap && hi < 1e6) hi *= 2.0;
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (lo + hi);
      (fg_bw_demand(mid) + bg_bw > cpu_cap ? lo : hi) = mid;
    }
    slowdown = 0.5 * (lo + hi);
    fg_bw_final = fg_bw_demand(slowdown);
  }

  // Per-physical-core effective switching activity and progress. Stalled
  // cycles do not switch, so contention also scales the activity factor.
  std::array<double, kBigCoreCount> core_activity{};
  double cpu_progress_rate = 0.0;  // units/s from foreground threads
  for (const auto& placed : placement.threads) {
    const auto& td = placed.demand;
    double stall_scale = 1.0;
    if (td.cpu_cycles_per_unit > 0.0 && td.mem_seconds_per_unit > 0.0 &&
        slowdown > 1.0) {
      const double cpu_time = td.cpu_cycles_per_unit / (ipc * f_cpu);
      stall_scale = (cpu_time + td.mem_seconds_per_unit) /
                    (cpu_time + td.mem_seconds_per_unit * slowdown);
    }
    core_activity[placed.core] +=
        placed.share * stall_scale * td.cpu_activity;
    if (td.counts_progress && td.cpu_cycles_per_unit > 0.0) {
      const double seconds_per_unit =
          td.cpu_cycles_per_unit / (ipc * f_cpu) +
          td.mem_seconds_per_unit * slowdown;
      cpu_progress_rate += placed.share / seconds_per_unit;
    }
  }
  const double mem_traffic = std::min(fg_bw_final + bg_bw + gpu_bw,
                                     power_params_.mem_bandwidth_cap);

  schedule_.progress_rate = cpu_progress_rate;
  if (foreground.gpu_cycles_per_unit > 0.0) {
    const double gpu_rate = gpu_achieved_hz / foreground.gpu_cycles_per_unit;
    schedule_.progress_rate = std::min(cpu_progress_rate, gpu_rate);
  }

  // --- Temperature-independent power terms ----------------------------------
  PowerTerms& k = terms_;
  k.big_active = big_active;
  if (big_active) {
    const int online = std::max(config_.online_big_cores(), 1);
    // Shared uncore clocked with the cluster; driven by the busiest core and
    // spread evenly over the online cores' thermal nodes.
    double max_activity = 0.0;
    for (int c = 0; c < kBigCoreCount; ++c) {
      if (config_.big_core_online[c]) {
        max_activity = std::max(
            max_activity, std::min(core_activity[c] + idle_activity, 1.0));
      }
    }
    k.uncore_share_w =
        power::dynamic_power_w(max_activity * power_params_.big_uncore_alpha_c,
                               v_cpu, f_cpu) /
        double(online);
    k.online_mask = 0;
    for (int c = 0; c < kBigCoreCount; ++c) {
      k.core_dyn_w[c] = 0.0;
      if (config_.big_core_online[c]) {
        const double act = std::min(core_activity[c] + idle_activity, 1.0);
        k.core_dyn_w[c] =
            power::dynamic_power_w(act * core_alpha_c_max, v_cpu, f_cpu);
        k.online_mask |= 1u << c;
      }
    }
    k.big_leak = big_leak_.term_at(v_cpu);
    // Little cluster parked: residual leakage only.
    k.little_leak = little_leak_.term_at(little_opps_.min().voltage_v);
  } else {
    // Little cluster active; big cores power-collapsed.
    double max_activity = 0.0;
    for (int c = 0; c < kLittleCoreCount; ++c) {
      const double act = std::min(core_activity[c] + idle_activity, 1.0);
      max_activity = std::max(max_activity, act);
      k.little_dyn_w[c] =
          power::dynamic_power_w(act * core_alpha_c_max, v_cpu, f_cpu);
    }
    k.little_uncore_w = power::dynamic_power_w(
        max_activity * power_params_.little_uncore_alpha_c, v_cpu, f_cpu);
    k.little_leak = little_leak_.term_at(v_cpu);
    k.big_leak = big_leak_.term_at(big_opps_.min().voltage_v);
  }
  k.gpu_dyn_w = power::dynamic_power_w(
      gpu_busy * power_params_.gpu_alpha_c_max, v_gpu_, config_.gpu_freq_hz);
  k.gpu_leak = gpu_leak_.term_at(v_gpu_);
  k.mem_const_w =
      power_params_.mem_base_w + mem_traffic * power_params_.mem_dynamic_max_w;
  k.mem_leak = mem_leak_.term_at(power_params_.mem_nominal_voltage_v);
}

HeatJacobian Soc::heat_jacobian(
    const std::array<double, kBigCoreCount>& big_temps_c,
    double little_temp_c, double gpu_temp_c, double mem_temp_c) const {
  constexpr std::size_t kLittle = kBigCoreCount;
  constexpr std::size_t kGpu = kLittle + 1;
  constexpr std::size_t kMem = kGpu + 1;
  const PowerTerms& k = terms_;
  HeatJacobian j{};
  if (k.big_active) {
    for (int c = 0; c < kBigCoreCount; ++c) {
      const double core_slope =
          k.big_leak.slope_w_per_k(big_temps_c[c]) / double(kBigCoreCount);
      j[c][c] = ((k.online_mask >> c) & 1u) != 0
                    ? core_slope
                    : core_slope * power_params_.offline_core_leakage_fraction;
    }
    j[kLittle][kLittle] = k.little_leak.slope_w_per_k(little_temp_c) *
                          power_params_.inactive_cluster_leakage_fraction;
  } else {
    j[kLittle][kLittle] = k.little_leak.slope_w_per_k(little_temp_c);
    const double residual_slope =
        k.big_leak.slope_w_per_k(big_temps_c[0]) *
        power_params_.inactive_cluster_leakage_fraction;
    for (int c = 0; c < kBigCoreCount; ++c) {
      j[c][0] = residual_slope / double(kBigCoreCount);
    }
  }
  j[kGpu][kGpu] = k.gpu_leak.slope_w_per_k(gpu_temp_c);
  j[kMem][kMem] = k.mem_leak.slope_w_per_k(mem_temp_c);
  return j;
}

}  // namespace dtpm::soc
