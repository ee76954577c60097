// The platform plant: a Samsung Exynos 5410-like MPSoC behavioural model.
//
// Given the applied SocConfig (cluster, hotplug mask, frequencies) and the
// instantaneous workload demand, the Soc computes the *true* per-rail power
// draw (with the full nonlinear leakage physics, including effects the
// paper's fitted models deliberately do not capture) and the rate at which
// the foreground workload makes progress. The DTPM stack never calls into
// this class directly -- it sees the platform only through sensor models and
// actuates only through SocConfig, mirroring the hardware/software boundary
// on the real board.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "power/leakage.hpp"
#include "power/opp.hpp"
#include "power/resource.hpp"
#include "soc/scheduler.hpp"
#include "soc/state.hpp"
#include "workload/runtime.hpp"

namespace dtpm::soc {

/// Ground-truth power parameters of the plant. Leakage parameters are
/// cluster-level (the rails meter whole clusters); per-core leakage is an
/// equal split among online cores. dibl_exponent is non-zero here: the true
/// silicon's subthreshold leakage rises with supply voltage, a structural
/// effect the paper's furnace-fitted model (single fixed voltage) folds into
/// its constants.
struct PlantPowerParams {
  power::LeakageParams big_leakage{3.9e-3, -2640.0, 0.005, 1.20, 1.5};
  power::LeakageParams little_leakage{1.0e-3, -2640.0, 0.002, 1.04, 1.5};
  power::LeakageParams gpu_leakage{2.0e-3, -2600.0, 0.003, 1.05, 1.5};
  power::LeakageParams mem_leakage{0.5e-3, -2700.0, 0.004, 1.20, 1.0};

  /// Per-core switching capacitance at activity factor 1.0.
  double big_core_alpha_c_max = 0.22e-9;
  double little_core_alpha_c_max = 0.06e-9;
  double gpu_alpha_c_max = 1.6e-9;

  /// Shared-uncore (L2, interconnect) switching capacitance; clocked with
  /// the cluster and driven by the busiest core's activity. This is why a
  /// single hot thread draws a large fraction of the power four threads do
  /// on the real A15 cluster.
  double big_uncore_alpha_c = 0.75e-9;
  double little_uncore_alpha_c = 0.15e-9;

  /// Clock-tree switching overhead, as activity, per online core.
  double big_idle_activity = 0.05;
  double little_idle_activity = 0.05;
  double gpu_idle_util = 0.02;

  /// Memory bandwidth ceiling in normalized traffic units: when the summed
  /// thread+GPU demand exceeds it, every thread's effective share (hence
  /// both its switching power and progress) scales back proportionally --
  /// the DDR contention that makes multithreaded power strongly sublinear
  /// in thread count.
  double mem_bandwidth_cap = 1.0;

  /// Residual leakage fraction of a power-gated core / parked cluster.
  double offline_core_leakage_fraction = 0.03;
  double inactive_cluster_leakage_fraction = 0.02;

  /// Memory rail model: base + traffic-proportional dynamic power.
  double mem_dynamic_max_w = 0.65;
  double mem_base_w = 0.08;
  double mem_gpu_traffic_weight = 0.35;
  double mem_nominal_voltage_v = 1.2;
  double mem_nominal_frequency_hz = 800e6;
};

bool operator==(const PlantPowerParams& a, const PlantPowerParams& b);

/// Performance model parameters.
struct PerfParams {
  double big_ipc_scale = 1.0;
  /// A7 retired work per cycle relative to A15 (out-of-order vs in-order).
  double little_ipc_scale = 0.45;
  /// Progress stall when migrating between clusters (§5.2: migrating across
  /// clusters has a larger overhead).
  double cluster_switch_stall_s = 0.05;
};

bool operator==(const PerfParams& a, const PerfParams& b);

/// The SoC's heat sources in step_captured()'s temperature-input and
/// power-output order: the four big cores, then the little, GPU and memory
/// rails.
constexpr std::size_t kHeatSourceCount = std::size_t(kBigCoreCount) + 3;
/// d(heat source i)/d(temperature of heat source j), W/K, both indices in
/// kHeatSourceCount order.
using HeatJacobian =
    std::array<std::array<double, kHeatSourceCount>, kHeatSourceCount>;

/// True plant outputs for one interval.
struct SocStepResult {
  power::ResourceVector rail_power_w{};
  std::array<double, kBigCoreCount> big_core_power_w{};
  /// Foreground workload progress during the interval, in work units.
  double progress_units = 0.0;
  double cpu_max_util = 0.0;
  double cpu_avg_util = 0.0;
  double gpu_util = 0.0;
};

class Soc {
 public:
  Soc() : Soc(PlantPowerParams{}, PerfParams{}) {}
  /// Default Exynos-5410 OPP tables (Tables 6.1-6.3).
  Soc(const PlantPowerParams& power_params, const PerfParams& perf_params);
  /// Platform-specific DVFS domains: the tables a sim::PlatformDescriptor
  /// carries as data.
  Soc(const PlantPowerParams& power_params, const PerfParams& perf_params,
      power::OppTable big_opps, power::OppTable little_opps,
      power::OppTable gpu_opps);

  const power::OppTable& big_opps() const { return big_opps_; }
  const power::OppTable& little_opps() const { return little_opps_; }
  const power::OppTable& gpu_opps() const { return gpu_opps_; }

  /// Applies a new actuation state. Frequencies must be exact OPP entries
  /// and at least one big core must stay online while the big cluster is
  /// active; throws std::invalid_argument otherwise. Switching the active
  /// cluster incurs the migration stall on the next step.
  void apply(const SocConfig& config);

  const SocConfig& config() const { return config_; }

  /// Advances the plant by dt seconds: places foreground + background
  /// threads, computes true rail powers using the supplied true node
  /// temperatures (leakage feedback), and returns workload progress.
  /// Exactly solve_schedule() followed by step_captured().
  SocStepResult step(const workload::Demand& foreground,
                     const std::vector<workload::ThreadDemand>& background,
                     const std::array<double, kBigCoreCount>& big_temps_c,
                     double little_temp_c, double gpu_temp_c,
                     double mem_temp_c, double dt_s);

  /// The workload-schedule phase of step(): thread placement, GPU demand,
  /// memory-contention equilibrium, per-core activity and progress rate,
  /// plus the power model's temperature-independent terms under them.
  /// These are pure functions of (foreground, background, applied config),
  /// so a caller that holds all three fixed across consecutive substeps --
  /// sim::Plant::advance within one control interval -- solves once and
  /// then calls step_captured() per substep: only the temperature-dependent
  /// leakage is re-evaluated.
  void solve_schedule(const workload::Demand& foreground,
                      const std::vector<workload::ThreadDemand>& background);

  /// One substep under the terms the last solve_schedule() captured,
  /// written into `out` (every member). dt_s must be > 0, and
  /// solve_schedule() must have run for the applied config.
  /// Inline: the plant's substep loop calls it directly.
  ///
  /// Operation order, which bit-identity depends on: each rail's leakage is
  /// LeakageTerm::power_w; a big core draws dynamic + leakage/4 + uncore
  /// share (online) or leakage/4 * offline fraction; the little rail is its
  /// leakage, then each core's dynamic term, then the uncore; each rail sums
  /// from 0.0, core by core.
  void step_captured(const std::array<double, kBigCoreCount>& big_temps_c,
                     double little_temp_c, double gpu_temp_c,
                     double mem_temp_c, double dt_s, SocStepResult& out) {
    const PowerTerms& k = terms_;
    auto& rails = out.rail_power_w;
    double big_rail = 0.0;
    if (k.big_active) {
      for (int c = 0; c < kBigCoreCount; ++c) {
        const double core_leak_w =
            k.big_leak.power_w(big_temps_c[c]) / double(kBigCoreCount);
        const double p_core =
            ((k.online_mask >> c) & 1u) != 0
                ? k.core_dyn_w[c] + core_leak_w + k.uncore_share_w
                : core_leak_w * power_params_.offline_core_leakage_fraction;
        out.big_core_power_w[c] = p_core;
        big_rail += p_core;
      }
      rails[power::resource_index(power::Resource::kLittleCluster)] =
          k.little_leak.power_w(little_temp_c) *
          power_params_.inactive_cluster_leakage_fraction;
    } else {
      double p_little = k.little_leak.power_w(little_temp_c);
      for (const double dyn_w : k.little_dyn_w) p_little += dyn_w;
      p_little += k.little_uncore_w;
      rails[power::resource_index(power::Resource::kLittleCluster)] = p_little;
      const double big_residual =
          k.big_leak.power_w(big_temps_c[0]) *
          power_params_.inactive_cluster_leakage_fraction;
      for (int c = 0; c < kBigCoreCount; ++c) {
        out.big_core_power_w[c] = big_residual / double(kBigCoreCount);
        big_rail += out.big_core_power_w[c];
      }
    }
    rails[power::resource_index(power::Resource::kBigCluster)] = big_rail;
    rails[power::resource_index(power::Resource::kGpu)] =
        k.gpu_dyn_w + k.gpu_leak.power_w(gpu_temp_c);
    rails[power::resource_index(power::Resource::kMem)] =
        k.mem_const_w + k.mem_leak.power_w(mem_temp_c);
    out.cpu_max_util = schedule_.cpu_max_util;
    out.cpu_avg_util = schedule_.cpu_avg_util;
    out.gpu_util = schedule_.gpu_busy;
    out.progress_units =
        schedule_.progress_rate * consume_migration_stall(dt_s);
  }

  /// step_captured()'s power outputs differentiated by its temperature
  /// inputs at the given temperatures, through the same branches. Only
  /// leakage depends on temperature, so the result is diagonal except while
  /// the little cluster is active: then every big core's residual rides on
  /// core 0's temperature (column 0). Call after solve_schedule().
  HeatJacobian heat_jacobian(
      const std::array<double, kBigCoreCount>& big_temps_c,
      double little_temp_c, double gpu_temp_c, double mem_temp_c) const;

  const PlantPowerParams& power_params() const { return power_params_; }
  const PerfParams& perf_params() const { return perf_params_; }

 private:
  /// Interval-invariant schedule outputs, valid while the workload and the
  /// applied config are unchanged (see solve_schedule()).
  struct Schedule {
    double cpu_max_util = 0.0;
    double cpu_avg_util = 0.0;
    double gpu_busy = 0.0;
    double progress_rate = 0.0;
  };

  /// The power model's temperature-independent terms under the solved
  /// schedule and the applied config, captured by solve_schedule().
  struct PowerTerms {
    bool big_active = true;
    unsigned online_mask = 0;  ///< bit c set: big core c online
    /// Big cluster active: each online core's dynamic power, and the
    /// uncore's power split over the online cores.
    std::array<double, kBigCoreCount> core_dyn_w{};
    double uncore_share_w = 0.0;
    /// Little cluster active: each core's dynamic power and the uncore's.
    std::array<double, kLittleCoreCount> little_dyn_w{};
    double little_uncore_w = 0.0;
    double gpu_dyn_w = 0.0;
    double mem_const_w = 0.0;  ///< base + traffic-proportional dynamic
    /// Per rail at its supply: the big/little rail at the active cluster's
    /// voltage, or at the cluster's minimum voltage while parked.
    power::LeakageTerm big_leak;
    power::LeakageTerm little_leak;
    power::LeakageTerm gpu_leak;
    power::LeakageTerm mem_leak;
  };

  /// Consumes up to dt_s of the pending cluster-migration stall and returns
  /// the effective progress time.
  double consume_migration_stall(double dt_s) {
    double effective_dt = dt_s;
    if (migration_stall_remaining_s_ > 0.0) {
      const double consumed = std::min(migration_stall_remaining_s_, dt_s);
      migration_stall_remaining_s_ -= consumed;
      effective_dt -= consumed;
    }
    return effective_dt;
  }

  PlantPowerParams power_params_;
  PerfParams perf_params_;
  power::OppTable big_opps_;
  power::OppTable little_opps_;
  power::OppTable gpu_opps_;
  power::LeakageModel big_leak_;
  power::LeakageModel little_leak_;
  power::LeakageModel gpu_leak_;
  power::LeakageModel mem_leak_;
  SocConfig config_;
  double migration_stall_remaining_s_ = 0.0;

  // Voltages of the applied frequencies, resolved once per apply() instead
  // of once per substep (the OPP lookup is a linear scan).
  double v_big_ = 0.0;
  double v_little_ = 0.0;
  double v_gpu_ = 0.0;

  // Reusable step() scratch (capacities persist across substeps so the hot
  // path performs no heap allocation).
  std::vector<workload::ThreadDemand> all_threads_scratch_;
  Placement placement_scratch_;
  std::vector<std::size_t> order_scratch_;

  Schedule schedule_;
  PowerTerms terms_;
};

}  // namespace dtpm::soc
