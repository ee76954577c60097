#include "sim/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "analysis/equilibrium.hpp"
#include "power/dynamic_power.hpp"
#include "soc/soc.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/sensor.hpp"
#include "util/prbs.hpp"
#include "util/rng.hpp"

namespace dtpm::sim {
namespace {

using power::Resource;
using power::resource_index;

/// A fresh plant instance (floorplan + SoC + sensors) for one experiment,
/// built from the platform descriptor's topology and role indices.
struct PlantBundle {
  thermal::Floorplan floorplan;
  soc::Soc soc;
  thermal::TempSensorBank temp_bank;
  power::PowerSensorBank power_bank;

  PlantBundle(const PlatformDescriptor& platform, util::Rng& root)
      : floorplan(thermal::build_floorplan(platform.floorplan)),
        soc(platform.power, platform.perf, platform.big_opp_table(),
            platform.little_opp_table(), platform.gpu_opp_table()),
        temp_bank(floorplan.sensor_node_index, platform.temp_sensor,
                  root.fork()),
        power_bank(platform.power_sensor, root.fork()) {}

  std::array<double, soc::kBigCoreCount> big_true_temps() const {
    const auto& temps = floorplan.network.temperatures_c();
    const auto& cores = floorplan.core_node_index;
    return {temps[cores[0]], temps[cores[1]], temps[cores[2]],
            temps[cores[3]]};
  }

  soc::SocStepResult plant_substep(const workload::Demand& demand,
                                   double dt_s) {
    const auto& temps = floorplan.network.temperatures_c();
    soc::SocStepResult out =
        soc.step(demand, {}, big_true_temps(),
                 temps[floorplan.little_node_index],
                 temps[floorplan.gpu_node_index],
                 temps[floorplan.mem_node_index], dt_s);
    std::vector<double> node_power;
    floorplan.assemble_node_power_into(out.big_core_power_w, out.rail_power_w,
                                       node_power);
    floorplan.network.step(dt_s, node_power);
    return out;
  }

  /// One control interval; returns the average true rail powers.
  power::ResourceVector interval(const workload::Demand& demand, double dt_s,
                                 double substep_s) {
    const int n = std::max(1, int(std::lround(dt_s / substep_s)));
    const double h = dt_s / n;
    power::ResourceVector accum{};
    for (int s = 0; s < n; ++s) {
      const soc::SocStepResult out = plant_substep(demand, h);
      for (std::size_t r = 0; r < power::kResourceCount; ++r) {
        accum[r] += out.rail_power_w[r] / double(n);
      }
    }
    return accum;
  }

  /// Leakage-consistent equilibration through the shared coupled solver
  /// (analysis/equilibrium.hpp): iterate to the fixed point where the
  /// network's steady state under temperature-dependent power reproduces the
  /// temperatures the power was computed at, to a tight tolerance. Loud
  /// failure instead of a silently-unconverged plant: calibration data taken
  /// off-equilibrium would poison every coefficient fitted from it.
  void equilibrate(const workload::Demand& demand) {
    const analysis::NodePowerFn probe = [&](const std::vector<double>& temps,
                                            std::vector<double>& node_power) {
      // Probe powers at the solver's trial temperatures without advancing
      // time meaningfully (the network still holds `temps`; the SoC step is
      // fed from it directly).
      const auto& cores = floorplan.core_node_index;
      const std::array<double, soc::kBigCoreCount> big = {
          temps[cores[0]], temps[cores[1]], temps[cores[2]], temps[cores[3]]};
      soc::SocStepResult out =
          soc.step(demand, {}, big, temps[floorplan.little_node_index],
                   temps[floorplan.gpu_node_index],
                   temps[floorplan.mem_node_index], 1e-4);
      floorplan.assemble_node_power_into(out.big_core_power_w,
                                         out.rail_power_w, node_power);
    };
    const analysis::EquilibriumResult eq =
        analysis::solve_coupled_equilibrium(floorplan.network, probe);
    if (!eq.converged) {
      throw std::runtime_error(
          "calibration: plant failed to reach a leakage-consistent "
          "equilibrium (" +
          std::string(eq.diverged ? "diverged -- thermal runaway"
                                  : "did not converge") +
          " after " + std::to_string(eq.iterations) +
          " iterations, residual " + std::to_string(eq.residual_c) + " C)");
    }
  }
};

/// Light characterization workload for a CPU cluster (single low-activity
/// thread, §4.1.1's "light workload ... with fixed f and Vdd").
workload::Demand light_cpu_demand(double activity, double mem_intensity) {
  workload::Demand d;
  workload::ThreadDemand td;
  td.duty = 1.0;
  td.cpu_activity = activity;
  td.mem_intensity = mem_intensity;
  td.counts_progress = false;
  d.threads.push_back(td);
  return d;
}

workload::Demand heavy_cpu_demand(int threads, double activity,
                                  double mem_intensity) {
  workload::Demand d;
  for (int i = 0; i < threads; ++i) {
    workload::ThreadDemand td;
    td.duty = 1.0;
    td.cpu_activity = activity;
    td.mem_intensity = mem_intensity;
    td.counts_progress = false;
    d.threads.push_back(td);
  }
  return d;
}

/// Furnace sweep for one resource at one fixed operating point.
std::vector<sysid::FurnaceSample> furnace_run(const CalibrationOptions& opt,
                                              const PlatformDescriptor& platform,
                                              util::Rng& root, Resource target,
                                              std::size_t op_index) {
  std::vector<sysid::FurnaceSample> samples;
  for (double t_furnace : opt.furnace_temps_c) {
    PlantBundle plant(platform, root);
    auto& rc = plant.floorplan.network;
    const std::size_t ambient = plant.floorplan.ambient_node_index;
    rc.set_boundary_temperature_c(ambient, t_furnace);
    rc.set_all_temperatures_c(t_furnace);

    soc::SocConfig config;
    workload::Demand demand;
    double sample_v = 0.0, sample_f = 0.0;
    switch (target) {
      case Resource::kBigCluster: {
        const auto& opp = plant.soc.big_opps().at(op_index);
        config.active_cluster = soc::ClusterId::kBig;
        config.big_freq_hz = opp.frequency_hz;
        config.little_freq_hz = plant.soc.little_opps().min().frequency_hz;
        config.gpu_freq_hz = plant.soc.gpu_opps().min().frequency_hz;
        demand = light_cpu_demand(0.25, 0.05);
        sample_v = opp.voltage_v;
        sample_f = opp.frequency_hz;
        break;
      }
      case Resource::kLittleCluster: {
        const auto& opp = plant.soc.little_opps().at(op_index);
        config.active_cluster = soc::ClusterId::kLittle;
        config.big_freq_hz = plant.soc.big_opps().min().frequency_hz;
        config.little_freq_hz = opp.frequency_hz;
        config.gpu_freq_hz = plant.soc.gpu_opps().min().frequency_hz;
        demand = light_cpu_demand(0.30, 0.05);
        sample_v = opp.voltage_v;
        sample_f = opp.frequency_hz;
        break;
      }
      case Resource::kGpu: {
        const auto& opp = plant.soc.gpu_opps().at(op_index);
        config.active_cluster = soc::ClusterId::kBig;
        config.big_freq_hz = plant.soc.big_opps().min().frequency_hz;
        config.little_freq_hz = plant.soc.little_opps().min().frequency_hz;
        config.gpu_freq_hz = opp.frequency_hz;
        demand = light_cpu_demand(0.15, 0.05);
        // Saturating load: the GPU is 100 % busy at both characterization
        // OPPs, so the (V^2 f) basis column actually varies between them and
        // the dynamic term separates from gate leakage.
        demand.gpu_load = 1.0;
        sample_v = opp.voltage_v;
        sample_f = opp.frequency_hz;
        break;
      }
      case Resource::kMem: {
        config.active_cluster = soc::ClusterId::kBig;
        config.big_freq_hz = plant.soc.big_opps().min().frequency_hz;
        config.little_freq_hz = plant.soc.little_opps().min().frequency_hz;
        config.gpu_freq_hz = plant.soc.gpu_opps().min().frequency_hz;
        demand = light_cpu_demand(0.15, 0.30);
        sample_v = platform.power.mem_nominal_voltage_v;
        sample_f = platform.power.mem_nominal_frequency_hz;
        break;
      }
      case Resource::kCount:
        throw std::invalid_argument("furnace_run: bad resource");
    }
    plant.soc.apply(config);
    plant.equilibrate(demand);

    const int n_samples =
        std::max(1, int(opt.furnace_sample_s / opt.control_interval_s));
    for (int n = 0; n < n_samples; ++n) {
      const power::ResourceVector rails = plant.interval(
          demand, opt.control_interval_s, opt.plant_substep_s);
      const power::ResourceVector sensed = plant.power_bank.read(rails);
      const std::vector<double> temps =
          plant.temp_bank.read(rc.temperatures_c());
      double t_mean = 0.0;
      for (double x : temps) t_mean += x / double(temps.size());
      samples.push_back(
          {t_mean, sensed[resource_index(target)], sample_v, sample_f});
    }
  }
  return samples;
}

struct ExcitationResult {
  sysid::TraceSegment segment;
  double alpha_c_high = 0.0;  ///< mean alphaC estimate over high-bit samples
};

/// PRBS excitation of one resource (§4.2.1): toggle its knob between the
/// extremes while everything else idles; record sensor T/P traces.
ExcitationResult excitation_run(const CalibrationOptions& opt,
                                const PlatformDescriptor& platform,
                                util::Rng& root, Resource target,
                                const power::LeakageParams& fitted_leakage) {
  PlantBundle plant(platform, root);
  auto& rc = plant.floorplan.network;
  util::Prbs prbs(15, opt.prbs_hold_intervals,
                  std::uint32_t(0x1234 + 97 * resource_index(target)));

  const std::size_t total_intervals =
      std::size_t((opt.prbs_warmup_s + opt.prbs_duration_s) /
                  opt.control_interval_s);
  const std::size_t warmup_intervals =
      std::size_t(opt.prbs_warmup_s / opt.control_interval_s);

  ExcitationResult result;
  power::LeakageModel leak(fitted_leakage);
  double alpha_sum = 0.0;
  std::size_t alpha_count = 0;

  for (std::size_t k = 0; k < total_intervals; ++k) {
    const bool bit = prbs.next();

    soc::SocConfig config;
    workload::Demand demand;
    double knob_v = 0.0, knob_f = 0.0;
    switch (target) {
      case Resource::kBigCluster: {
        const auto& opp = bit ? plant.soc.big_opps().max()
                              : plant.soc.big_opps().min();
        config.active_cluster = soc::ClusterId::kBig;
        config.big_freq_hz = opp.frequency_hz;
        config.little_freq_hz = plant.soc.little_opps().min().frequency_hz;
        config.gpu_freq_hz = plant.soc.gpu_opps().min().frequency_hz;
        demand = heavy_cpu_demand(4, 0.8, 0.2);
        knob_v = opp.voltage_v;
        knob_f = opp.frequency_hz;
        break;
      }
      case Resource::kLittleCluster: {
        const auto& opp = bit ? plant.soc.little_opps().max()
                              : plant.soc.little_opps().min();
        config.active_cluster = soc::ClusterId::kLittle;
        config.big_freq_hz = plant.soc.big_opps().min().frequency_hz;
        config.little_freq_hz = opp.frequency_hz;
        config.gpu_freq_hz = plant.soc.gpu_opps().min().frequency_hz;
        demand = heavy_cpu_demand(4, 0.8, 0.2);
        knob_v = opp.voltage_v;
        knob_f = opp.frequency_hz;
        break;
      }
      case Resource::kGpu: {
        const auto& opp = bit ? plant.soc.gpu_opps().max()
                              : plant.soc.gpu_opps().min();
        config.active_cluster = soc::ClusterId::kBig;
        config.big_freq_hz = plant.soc.big_opps().min().frequency_hz;
        config.little_freq_hz = plant.soc.little_opps().min().frequency_hz;
        config.gpu_freq_hz = opp.frequency_hz;
        demand = light_cpu_demand(0.3, 0.1);
        demand.gpu_load = 0.9;
        knob_v = opp.voltage_v;
        knob_f = opp.frequency_hz;
        break;
      }
      case Resource::kMem: {
        config.active_cluster = soc::ClusterId::kBig;
        config.big_freq_hz = plant.soc.big_opps().min().frequency_hz;
        config.little_freq_hz = plant.soc.little_opps().min().frequency_hz;
        config.gpu_freq_hz = plant.soc.gpu_opps().min().frequency_hz;
        demand = heavy_cpu_demand(2, 0.3, bit ? 0.95 : 0.02);
        knob_v = platform.power.mem_nominal_voltage_v;
        knob_f = platform.power.mem_nominal_frequency_hz;
        break;
      }
      case Resource::kCount:
        throw std::invalid_argument("excitation_run: bad resource");
    }
    plant.soc.apply(config);

    const std::vector<double> temps_before =
        plant.temp_bank.read(rc.temperatures_c());
    const power::ResourceVector rails =
        plant.interval(demand, opt.control_interval_s, opt.plant_substep_s);
    const power::ResourceVector sensed = plant.power_bank.read(rails);

    if (k >= warmup_intervals) {
      result.segment.temps_c.push_back(temps_before);
      result.segment.powers_w.push_back({sensed.begin(), sensed.end()});
      if (bit && target != Resource::kMem) {
        double t_mean = 0.0;
        for (double x : temps_before) t_mean += x / double(temps_before.size());
        const double dyn =
            sensed[resource_index(target)] - leak.power_w(t_mean, knob_v);
        if (dyn > 0.0 && knob_f > 0.0) {
          alpha_sum += power::alpha_c_from_power(dyn, knob_v, knob_f);
          ++alpha_count;
        }
      }
    }
  }
  // Close the segment with a final temperature sample so the last recorded
  // (T, P) pair has a successor.
  result.segment.temps_c.push_back(plant.temp_bank.read(rc.temperatures_c()));
  result.segment.powers_w.push_back(result.segment.powers_w.back());

  if (alpha_count > 0) result.alpha_c_high = alpha_sum / double(alpha_count);
  return result;
}

std::size_t second_op_index(Resource r) {
  // A mid-table second operating point per resource, giving the fit a
  // distinct (V^2 f, V) pair to separate dynamic power from gate leakage.
  switch (r) {
    case Resource::kBigCluster:
      return 2;  // 1000 MHz
    case Resource::kLittleCluster:
      return 3;  // 800 MHz
    case Resource::kGpu:
      return 2;  // 350 MHz (busy stays saturated at the low end)
    default:
      return 0;
  }
}

}  // namespace

CalibrationArtifacts calibrate_platform_full(const CalibrationOptions& options) {
  CalibrationArtifacts art;
  util::Rng root(options.seed);
  const PlatformPtr& platform = options.platform;
  if (platform == nullptr) {
    throw std::invalid_argument("calibrate_platform: null platform descriptor");
  }

  // --- 1. Furnace leakage characterization -----------------------------------
  for (Resource r : power::all_resources()) {
    const std::size_t idx = resource_index(r);
    auto samples = furnace_run(options, *platform, root, r, 0);
    if (r != Resource::kMem) {
      auto more = furnace_run(options, *platform, root, r, second_op_index(r));
      samples.insert(samples.end(), more.begin(), more.end());
    }
    sysid::LeakageFitOptions fit_options;
    fit_options.fit_dynamic_term = r != Resource::kMem;
    art.furnace_samples[idx] = samples;
    art.leakage_fits[idx] = sysid::fit_leakage(samples, fit_options);
    art.model.leakage[idx] = art.leakage_fits[idx].params;
  }

  // --- 2. PRBS excitation + 3. ARX identification ---------------------------
  for (Resource r : power::all_resources()) {
    ExcitationResult ex = excitation_run(options, *platform, root, r,
                                         art.model.leakage[resource_index(r)]);
    art.excitation_segments.push_back(std::move(ex.segment));
    art.model.initial_alpha_c[resource_index(r)] = ex.alpha_c_high;
  }
  sysid::ArxFitOptions arx_options;
  arx_options.ambient_ref_c = platform->floorplan.ambient_temp_c();
  art.arx = sysid::fit_thermal_model(art.excitation_segments,
                                     options.control_interval_s, arx_options);
  art.model.thermal = art.arx.model;
  return art;
}

sysid::IdentifiedPlatformModel calibrate_platform(
    const CalibrationOptions& options) {
  return calibrate_platform_full(options).model;
}

const CalibrationArtifacts& default_calibration() {
  static const CalibrationArtifacts artifacts = calibrate_platform_full();
  return artifacts;
}

const CalibrationArtifacts& platform_calibration(const PlatformPtr& platform) {
  if (platform == nullptr) {
    throw std::invalid_argument("platform_calibration: null platform");
  }
  // The default platform shares the default_calibration() artifacts, so
  // every caller agrees on one Odroid model.
  if (*platform == *default_platform()) return default_calibration();

  // Keyed by descriptor *identity* (pointer fast path, then memberwise
  // equality), never by name alone: two different descriptors that happen to
  // share a name each get their own calibration. The linear scan is fine --
  // a process calibrates a handful of platforms, each costing far more than
  // any lookup.
  using Entry = std::pair<PlatformPtr, std::unique_ptr<CalibrationArtifacts>>;
  static std::mutex mutex;
  static std::vector<Entry>* cache = new std::vector<Entry>();
  std::lock_guard<std::mutex> lock(mutex);
  for (const Entry& entry : *cache) {
    if (entry.first == platform || *entry.first == *platform) {
      return *entry.second;
    }
  }
  CalibrationOptions options;
  options.platform = platform;
  cache->emplace_back(platform, std::make_unique<CalibrationArtifacts>(
                                    calibrate_platform_full(options)));
  return *cache->back().second;
}

}  // namespace dtpm::sim
