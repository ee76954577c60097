#include "sim/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/equilibrium.hpp"
#include "analysis/stability.hpp"
#include "power/dynamic_power.hpp"
#include "soc/soc.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/lti_propagator.hpp"
#include "thermal/sensor.hpp"
#include "util/prbs.hpp"
#include "util/rng.hpp"

namespace dtpm::sim {
namespace {

using power::Resource;
using power::resource_index;

/// What every PlantBundle of one calibration copies or shares, built on the
/// calling thread before any pipeline starts and read-only after it: the
/// platform, the control interval's substep grid (substep count rounded, at
/// least one), the as-built floorplan and its [Phi | Gamma] at that substep
/// length. A bundle never moves the fan edge, so the one table entry serves
/// every step.
struct BundleTemplate {
  const PlatformDescriptor& platform;
  int substeps;
  double substep_s;
  thermal::Floorplan floorplan;
  thermal::PropagatorTable propagators;

  explicit BundleTemplate(const CalibrationOptions& opt)
      : platform(*opt.platform),
        substeps(std::max(1, int(std::lround(opt.control_interval_s /
                                             opt.plant_substep_s)))),
        substep_s(opt.control_interval_s / substeps),
        floorplan(thermal::build_floorplan(platform.floorplan)) {
    propagators.add(floorplan.network, substep_s);
  }
};

/// A fresh plant instance (floorplan + SoC + sensors) for one experiment: a
/// copy of the template's floorplan, stepped through the propagator over
/// the template's table. Each bundle forks the root stream kRootDraws times
/// (once per sensor bank).
struct PlantBundle {
  static constexpr std::size_t kRootDraws = 2;

  const BundleTemplate& shared;
  thermal::Floorplan floorplan;
  soc::Soc soc;
  thermal::TempSensorBank temp_bank;
  power::PowerSensorBank power_bank;
  thermal::Floorplan::HeatNodes heat_nodes;
  /// Zeroed here; interval() rewrites only the heat_nodes entries.
  std::vector<double> node_power;
  thermal::PropagatorRcModel propagator;

  PlantBundle(const BundleTemplate& from, util::Rng& root)
      : shared(from),
        floorplan(from.floorplan),
        soc(from.platform.power, from.platform.perf,
            from.platform.big_opp_table(), from.platform.little_opp_table(),
            from.platform.gpu_opp_table()),
        temp_bank(floorplan.sensor_node_index, from.platform.temp_sensor,
                  root.fork()),
        power_bank(from.platform.power_sensor, root.fork()),
        heat_nodes(floorplan.heat_nodes()),
        node_power(floorplan.network.node_count(), 0.0),
        propagator(&from.propagators) {}

  /// One control interval: the schedule solved once (demand and config are
  /// fixed), then each substep's SoC evaluation and thermal step, in
  /// sim::Plant::advance's sequence (`step` on the first substep, which
  /// resolves the table entry, then `step_resolved`); returns the average
  /// true rail powers.
  power::ResourceVector interval(const workload::Demand& demand) {
    const int n = shared.substeps;
    const double h = shared.substep_s;
    thermal::RcNetwork& network = floorplan.network;
    const auto& temps = network.temperatures_c();
    const auto at = [&](std::size_t i) { return temps[heat_nodes[i]]; };
    soc.solve_schedule(demand, {});
    soc::SocStepResult out;
    power::ResourceVector accum{};
    const thermal::PropagatorMatrices* resolved = nullptr;
    for (int s = 0; s < n; ++s) {
      soc.step_captured({at(0), at(1), at(2), at(3)}, at(4), at(5), at(6), h,
                        out);
      thermal::Floorplan::write_heat(heat_nodes, out.big_core_power_w,
                                     out.rail_power_w, node_power);
      if (resolved != nullptr) {
        propagator.step_resolved(*resolved, network, node_power);
      } else {
        propagator.step(network, h, node_power);
        resolved = &propagator.matrices_for(network, h);
      }
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
  /// off-equilibrium would poison every coefficient fitted from it. The
  /// probe is the analyzer's CoupledPowerModel: the schedule solved once,
  /// then the plant's power model at each trial temperature.
  void equilibrate(const workload::Demand& demand) {
    soc.solve_schedule(demand, {});
    analysis::CoupledPowerModel model(floorplan, soc);
    const analysis::EquilibriumResult eq = analysis::solve_coupled_equilibrium(
        floorplan.network,
        [&model](const std::vector<double>& temps,
                 std::vector<double>& power_w) {
          model.node_power(temps, power_w);
        });
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

/// Furnace sweep for one resource at one fixed operating point; appends to
/// `samples`.
void furnace_run(const CalibrationOptions& opt, const BundleTemplate& shared,
                 util::Rng& root, Resource target, std::size_t op_index,
                 std::vector<sysid::FurnaceSample>& samples) {
  const PlatformDescriptor& platform = shared.platform;
  std::vector<double> temps;
  for (double t_furnace : opt.furnace_temps_c) {
    PlantBundle plant(shared, root);
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
      const power::ResourceVector rails = plant.interval(demand);
      const power::ResourceVector sensed = plant.power_bank.read(rails);
      plant.temp_bank.read_into(rc.temperatures_c(), temps);
      double t_mean = 0.0;
      for (double x : temps) t_mean += x / double(temps.size());
      samples.push_back(
          {t_mean, sensed[resource_index(target)], sample_v, sample_f});
    }
  }
}

/// excitation_run's schedule: `total` control intervals, the first `warmup`
/// of them unrecorded.
struct ExcitationSchedule {
  std::size_t total = 0;
  std::size_t warmup = 0;
};

ExcitationSchedule excitation_schedule(const CalibrationOptions& opt) {
  return {std::size_t((opt.prbs_warmup_s + opt.prbs_duration_s) /
                      opt.control_interval_s),
          std::size_t(opt.prbs_warmup_s / opt.control_interval_s)};
}

/// One excitation recording, flat and row-major: `temps` holds `temp_width`
/// readings per row, `powers` kResourceCount per row. Pipelines record into
/// these two buffers, which the calling thread reserves before any worker
/// starts, rather than into a TraceSegment's thousands of per-row vectors:
/// memory a worker allocates stays cached in that thread's malloc arena
/// after it is freed and raises the process's peak RSS.
struct ExcitationRecord {
  std::size_t temp_width = 0;
  std::vector<double> temps;
  std::vector<double> powers;
  double alpha_c_high = 0.0;  ///< mean alphaC estimate over high-bit samples

  sysid::TraceSegment to_segment() const {
    sysid::TraceSegment seg;
    const std::size_t rows = temps.size() / temp_width;
    seg.temps_c.reserve(rows);
    seg.powers_w.reserve(rows);
    for (std::size_t k = 0; k < rows; ++k) {
      const auto t = temps.begin() + std::ptrdiff_t(k * temp_width);
      const auto p = powers.begin() + std::ptrdiff_t(k * power::kResourceCount);
      seg.temps_c.emplace_back(t, t + std::ptrdiff_t(temp_width));
      seg.powers_w.emplace_back(p, p + std::ptrdiff_t(power::kResourceCount));
    }
    return seg;
  }
};

/// PRBS excitation of one resource (§4.2.1): toggle its knob between the
/// extremes while everything else idles; record sensor T/P traces.
/// Appends to `result`.
void excitation_run(const CalibrationOptions& opt,
                    const BundleTemplate& shared, util::Rng& root,
                    Resource target, const power::LeakageParams& fitted_leakage,
                    ExcitationRecord& result) {
  PlantBundle plant(shared, root);
  const PlatformDescriptor& platform = shared.platform;
  auto& rc = plant.floorplan.network;
  util::Prbs prbs(15, opt.prbs_hold_intervals,
                  std::uint32_t(0x1234 + 97 * resource_index(target)));
  const ExcitationSchedule schedule = excitation_schedule(opt);

  result.temp_width = plant.temp_bank.observed_nodes().size();
  std::vector<double> temps_before;
  power::ResourceVector last_sensed{};
  power::LeakageModel leak(fitted_leakage);
  double alpha_sum = 0.0;
  std::size_t alpha_count = 0;

  for (std::size_t k = 0; k < schedule.total; ++k) {
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

    plant.temp_bank.read_into(rc.temperatures_c(), temps_before);
    const power::ResourceVector rails = plant.interval(demand);
    const power::ResourceVector sensed = plant.power_bank.read(rails);

    if (k >= schedule.warmup) {
      result.temps.insert(result.temps.end(), temps_before.begin(),
                          temps_before.end());
      result.powers.insert(result.powers.end(), sensed.begin(), sensed.end());
      last_sensed = sensed;
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
  plant.temp_bank.read_into(rc.temperatures_c(), temps_before);
  result.temps.insert(result.temps.end(), temps_before.begin(),
                      temps_before.end());
  result.powers.insert(result.powers.end(), last_sensed.begin(),
                       last_sensed.end());

  if (alpha_count > 0) result.alpha_c_high = alpha_sum / double(alpha_count);
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

/// Operating points the furnace sweeps for a resource: two, so the dynamic
/// term separates from gate leakage, except memory's fixed rail.
std::size_t furnace_op_count(Resource r) { return r == Resource::kMem ? 1 : 2; }

/// Rejects options the workflow cannot run, before any plant is built or
/// thread started.
void validate(const CalibrationOptions& opt) {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument("calibrate_platform: " + what);
  };
  auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  constexpr double kMaxIntervals = double(std::numeric_limits<int>::max());
  if (opt.platform == nullptr) reject("null platform descriptor");
  if (!positive(opt.control_interval_s)) {
    reject("control_interval_s must be finite and > 0");
  }
  if (!positive(opt.plant_substep_s)) {
    reject("plant_substep_s must be finite and > 0");
  }
  if (opt.furnace_temps_c.empty()) reject("furnace_temps_c is empty");
  for (double t : opt.furnace_temps_c) {
    if (!std::isfinite(t)) reject("furnace_temps_c holds a non-finite setpoint");
  }
  if (!(opt.furnace_sample_s >= 0.0 &&
        opt.furnace_sample_s / opt.control_interval_s < kMaxIntervals)) {
    reject("furnace_sample_s must be >= 0 and span fewer than INT_MAX intervals");
  }
  if (!(opt.prbs_warmup_s >= 0.0 &&
        opt.prbs_warmup_s / opt.control_interval_s < kMaxIntervals)) {
    reject("prbs_warmup_s must be >= 0 and span fewer than INT_MAX intervals");
  }
  const char* no_interval =
      "prbs_duration_s must record at least one control interval";
  if (!(opt.prbs_duration_s > 0.0 &&
        (opt.prbs_warmup_s + opt.prbs_duration_s) / opt.control_interval_s <
            kMaxIntervals)) {
    reject(no_interval);
  }
  const ExcitationSchedule schedule = excitation_schedule(opt);
  if (schedule.total <= schedule.warmup) reject(no_interval);
  if (opt.prbs_hold_intervals == 0) reject("prbs_hold_intervals must be >= 1");
}

/// One resource's furnace -> leakage fit -> excitation pipeline. Each stage
/// catches its own error, so a pipeline never throws and a later stage never
/// runs on a failed earlier one.
struct Pipeline {
  std::vector<sysid::FurnaceSample> furnace_samples;
  sysid::LeakageFitResult leakage_fit;
  ExcitationRecord excitation;
  std::exception_ptr furnace_error;
  std::exception_ptr excitation_error;

  /// `furnace_rng` and `excitation_rng` are the root stream advanced to the
  /// draw positions the serial order reaches each stage at.
  void run(const CalibrationOptions& opt, const BundleTemplate& shared,
           Resource r, util::Rng furnace_rng, util::Rng excitation_rng) noexcept {
    try {
      furnace_run(opt, shared, furnace_rng, r, 0, furnace_samples);
      if (furnace_op_count(r) > 1) {
        furnace_run(opt, shared, furnace_rng, r, second_op_index(r),
                    furnace_samples);
      }
      sysid::LeakageFitOptions fit_options;
      fit_options.fit_dynamic_term = r != Resource::kMem;
      leakage_fit = sysid::fit_leakage(furnace_samples, fit_options);
    } catch (...) {
      furnace_error = std::current_exception();
      return;
    }
    try {
      excitation_run(opt, shared, excitation_rng, r, leakage_fit.params,
                     excitation);
    } catch (...) {
      excitation_error = std::current_exception();
    }
  }
};

util::Rng advanced(util::Rng rng, std::size_t draws) {
  rng.engine().discard(draws);
  return rng;
}

}  // namespace

CalibrationArtifacts calibrate_platform_full(const CalibrationOptions& options) {
  validate(options);
  const PlatformDescriptor& platform = *options.platform;
  const util::Rng root(options.seed);

  // The serial workflow forks the root stream only through PlantBundles:
  // every furnace stage in resource order, then one excitation bundle per
  // resource. Each pipeline starts from the positions that order gives it.
  std::array<std::size_t, power::kResourceCount> furnace_offset{};
  std::size_t furnace_draws = 0;
  for (Resource r : power::all_resources()) {
    furnace_offset[resource_index(r)] = furnace_draws;
    furnace_draws += PlantBundle::kRootDraws * furnace_op_count(r) *
                     options.furnace_temps_c.size();
  }
  std::array<Pipeline, power::kResourceCount> pipelines;
  const ExcitationSchedule schedule = excitation_schedule(options);
  const std::size_t rows = schedule.total - schedule.warmup + 1;
  for (Pipeline& p : pipelines) {
    p.excitation.temps.reserve(rows * platform.floorplan.sensor_nodes.size());
    p.excitation.powers.reserve(rows * power::kResourceCount);
  }
  // Compiled here, before any thread starts; the pipelines only read it.
  const BundleTemplate shared(options);
  auto run = [&](std::size_t i) {
    pipelines[i].run(options, shared, power::all_resources()[i],
                     advanced(root, furnace_offset[i]),
                     advanced(root, furnace_draws + PlantBundle::kRootDraws * i));
  };

  // The calling thread runs pipeline 0 and one thread each runs the others;
  // should a thread fail to start, the calling thread runs its pipeline.
  std::vector<std::thread> workers;
  std::size_t spawned = 1;
  try {
    workers.reserve(power::kResourceCount - 1);
    for (; spawned < power::kResourceCount; ++spawned) {
      workers.emplace_back(run, spawned);
    }
  } catch (const std::exception&) {
    // Out of threads: the loop below runs the unstarted pipelines here.
  }
  run(0);
  for (std::size_t i = spawned; i < power::kResourceCount; ++i) run(i);
  for (std::thread& worker : workers) worker.join();

  // Raise the error the serial order would have raised first.
  for (const Pipeline& p : pipelines) {
    if (p.furnace_error) std::rethrow_exception(p.furnace_error);
  }
  for (const Pipeline& p : pipelines) {
    if (p.excitation_error) std::rethrow_exception(p.excitation_error);
  }

  CalibrationArtifacts art;
  for (std::size_t i = 0; i < power::kResourceCount; ++i) {
    Pipeline& p = pipelines[i];
    art.furnace_samples[i] = std::move(p.furnace_samples);
    art.leakage_fits[i] = p.leakage_fit;
    art.model.leakage[i] = p.leakage_fit.params;
    art.excitation_segments.push_back(p.excitation.to_segment());
    art.model.initial_alpha_c[i] = p.excitation.alpha_c_high;
    p.excitation = {};
  }
  sysid::ArxFitOptions arx_options;
  arx_options.ambient_ref_c = platform.floorplan.ambient_temp_c();
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
