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
#include "sim/config.hpp"
#include "sim/plant.hpp"
#include "soc/soc.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/lti_propagator.hpp"
#include "util/prbs.hpp"
#include "util/rng.hpp"

namespace dtpm::sim {
namespace {

using power::Resource;
using power::resource_index;

/// What every experiment Plant of one calibration shares, built on the
/// calling thread before any pipeline starts and read-only after it: the
/// control interval's substep grid, [Phi | Gamma] at that substep length and
/// the plant template over the as-built floorplan and that table. No
/// experiment moves the fan edge, so the one table entry serves every step.
struct ExperimentTemplate {
  int substeps;
  double substep_s;
  thermal::PropagatorTable propagators;
  PlantTemplate plant;

  explicit ExperimentTemplate(const CalibrationOptions& opt)
      : substeps(plant_substeps(opt.control_interval_s, opt.plant_substep_s)),
        substep_s(opt.control_interval_s / substeps),
        plant{thermal::build_floorplan(opt.platform->floorplan),
              &propagators} {
    propagators.add(plant.floorplan.network, substep_s);
  }
};

/// Root draws per experiment. A Plant forks three streams from the root
/// (temperature bank, power bank, external meter; sim/plant.hpp), but the
/// pinned calibration streams give each experiment two draws and
/// calibration never reads the meter: each Plant forks from a copy of the
/// root, and the root then skips kRootDraws.
constexpr std::size_t kRootDraws = 2;

/// A fresh plant for one experiment, stepped through the propagator over the
/// template's table.
Plant experiment_plant(const CalibrationOptions& opt,
                       const ExperimentTemplate& shared, util::Rng& root) {
  util::Rng stream = root;
  root.engine().discard(kRootDraws);
  return Plant(*opt.platform, stream, &shared.plant, Engine::kPropagator);
}

const std::vector<workload::ThreadDemand> kNoBackground;

/// One control interval of `plant` under `demand`; returns the average true
/// rail powers.
power::ResourceVector interval(Plant& plant, const ExperimentTemplate& shared,
                               const workload::Demand& demand) {
  return plant
      .advance(demand, kNoBackground, nullptr, shared.substeps,
               shared.substep_s)
      .rails_avg_w;
}

/// Leakage-consistent equilibration through the shared coupled solver
/// (analysis/equilibrium.hpp): iterate to the fixed point where the
/// network's steady state under temperature-dependent power reproduces the
/// temperatures the power was computed at, to a tight tolerance. Loud
/// failure instead of a silently-unconverged plant: calibration data taken
/// off-equilibrium would poison every coefficient fitted from it. The probe
/// is the analyzer's CoupledPowerModel: the schedule solved once, then the
/// plant's power model at each trial temperature.
void equilibrate(Plant& plant, const workload::Demand& demand) {
  plant.soc().solve_schedule(demand, kNoBackground);
  analysis::CoupledPowerModel model(plant.floorplan(), plant.soc());
  const analysis::EquilibriumResult eq = analysis::solve_coupled_equilibrium(
      plant.floorplan().network,
      [&model](const std::vector<double>& temps, std::vector<double>& power_w) {
        model.node_power(temps, power_w);
      });
  if (!eq.converged) {
    throw std::runtime_error(
        "calibration: plant failed to reach a leakage-consistent "
        "equilibrium (" +
        std::string(eq.diverged ? "diverged -- thermal runaway"
                                : "did not converge") +
        " after " + std::to_string(eq.iterations) + " iterations, residual " +
        std::to_string(eq.residual_c) + " C)");
  }
}

/// The characterization config: the big cluster active and every knob at
/// its minimum OPP, except `target`'s, which runs at `freq_hz` (the little
/// cluster is active when it is the target). Memory has no knob, so its
/// config ignores `freq_hz`.
soc::SocConfig pinned_config(const soc::Soc& soc, Resource target,
                             double freq_hz) {
  const auto pick = [&](Resource r, const power::OppTable& opps) {
    return r == target ? freq_hz : opps.min().frequency_hz;
  };
  soc::SocConfig config;
  config.active_cluster = target == Resource::kLittleCluster
                              ? soc::ClusterId::kLittle
                              : soc::ClusterId::kBig;
  config.big_freq_hz = pick(Resource::kBigCluster, soc.big_opps());
  config.little_freq_hz = pick(Resource::kLittleCluster, soc.little_opps());
  config.gpu_freq_hz = pick(Resource::kGpu, soc.gpu_opps());
  return config;
}

/// The OPP table of a resource's knob; memory has none.
const power::OppTable& knob_opps(const soc::Soc& soc, Resource r) {
  switch (r) {
    case Resource::kBigCluster:
      return soc.big_opps();
    case Resource::kLittleCluster:
      return soc.little_opps();
    case Resource::kGpu:
      return soc.gpu_opps();
    default:
      throw std::invalid_argument("calibration: resource has no OPP knob");
  }
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

/// Light characterization workload for a CPU cluster (single low-activity
/// thread, §4.1.1's "light workload ... with fixed f and Vdd").
workload::Demand light_cpu_demand(double activity, double mem_intensity) {
  return heavy_cpu_demand(1, activity, mem_intensity);
}

/// Whole control intervals in `seconds`: the ratio truncated, except that a
/// ratio within rounding error of an integer counts as that integer, so
/// 0.3 s at 0.1 s (0.3 / 0.1 = 2.9999999999999996) is three intervals.
/// validate() bounds the ratio below INT_MAX first.
std::size_t whole_intervals(double seconds, const CalibrationOptions& opt) {
  const double ratio = seconds / opt.control_interval_s;
  const double nearest = std::round(ratio);
  return std::size_t(std::fabs(ratio - nearest) <= 1e-9 * std::max(1.0, nearest)
                         ? nearest
                         : std::floor(ratio));
}

/// Furnace sweep for one resource at one fixed operating point; appends to
/// `samples`.
void furnace_run(const CalibrationOptions& opt,
                 const ExperimentTemplate& shared, util::Rng& root,
                 Resource target, std::size_t op_index,
                 std::vector<sysid::FurnaceSample>& samples) {
  const PlatformDescriptor& platform = *opt.platform;
  std::vector<double> temps;
  for (double t_furnace : opt.furnace_temps_c) {
    Plant plant = experiment_plant(opt, shared, root);
    thermal::Floorplan& floorplan = plant.floorplan();
    floorplan.network.set_boundary_temperature_c(floorplan.ambient_node_index,
                                                 t_furnace);
    floorplan.network.set_all_temperatures_c(t_furnace);

    workload::Demand demand;
    switch (target) {
      case Resource::kBigCluster:
        demand = light_cpu_demand(0.25, 0.05);
        break;
      case Resource::kLittleCluster:
        demand = light_cpu_demand(0.30, 0.05);
        break;
      case Resource::kGpu:
        demand = light_cpu_demand(0.15, 0.05);
        // Saturating load: the GPU is 100 % busy at both characterization
        // OPPs, so the (V^2 f) basis column actually varies between them and
        // the dynamic term separates from gate leakage.
        demand.gpu_load = 1.0;
        break;
      case Resource::kMem:
        demand = light_cpu_demand(0.15, 0.30);
        break;
      case Resource::kCount:
        throw std::invalid_argument("furnace_run: bad resource");
    }
    double sample_v = platform.power.mem_nominal_voltage_v;
    double sample_f = platform.power.mem_nominal_frequency_hz;
    if (target != Resource::kMem) {
      const auto& opp = knob_opps(plant.soc(), target).at(op_index);
      sample_v = opp.voltage_v;
      sample_f = opp.frequency_hz;
    }
    plant.apply(pinned_config(plant.soc(), target, sample_f));
    equilibrate(plant, demand);

    const std::size_t n_samples =
        std::max<std::size_t>(1, whole_intervals(opt.furnace_sample_s, opt));
    for (std::size_t n = 0; n < n_samples; ++n) {
      const power::ResourceVector sensed =
          plant.read_rails(interval(plant, shared, demand));
      plant.read_temps_into(temps);
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
  const std::size_t warmup = whole_intervals(opt.prbs_warmup_s, opt);
  return {warmup + whole_intervals(opt.prbs_duration_s, opt), warmup};
}

/// One PRBS level of an excitation run: the demand and the target knob's
/// operating point while the sequence holds that bit.
struct PrbsLevel {
  workload::Demand demand;
  double knob_v = 0.0;
  double knob_f = 0.0;
  soc::SocConfig config;
};

PrbsLevel prbs_level(const Plant& plant, const PlatformDescriptor& platform,
                     Resource target, bool bit) {
  PrbsLevel level;
  switch (target) {
    case Resource::kBigCluster:
    case Resource::kLittleCluster:
      level.demand = heavy_cpu_demand(4, 0.8, 0.2);
      break;
    case Resource::kGpu:
      level.demand = light_cpu_demand(0.3, 0.1);
      level.demand.gpu_load = 0.9;
      break;
    case Resource::kMem:
      level.demand = heavy_cpu_demand(2, 0.3, bit ? 0.95 : 0.02);
      break;
    case Resource::kCount:
      throw std::invalid_argument("excitation_run: bad resource");
  }
  level.knob_v = platform.power.mem_nominal_voltage_v;
  level.knob_f = platform.power.mem_nominal_frequency_hz;
  if (target != Resource::kMem) {
    const power::OppTable& opps = knob_opps(plant.soc(), target);
    const auto& opp = bit ? opps.max() : opps.min();
    level.knob_v = opp.voltage_v;
    level.knob_f = opp.frequency_hz;
  }
  level.config = pinned_config(plant.soc(), target, level.knob_f);
  return level;
}

/// PRBS excitation of one resource (§4.2.1): toggle its knob between the
/// extremes while everything else idles; record sensor T/P rows into
/// `segment`, whose buffers the caller reserved. Returns the mean alphaC
/// estimate over the recorded high-bit intervals (0 if there are none).
double excitation_run(const CalibrationOptions& opt,
                      const ExperimentTemplate& shared, util::Rng& root,
                      Resource target,
                      const power::LeakageParams& fitted_leakage,
                      sysid::TraceSegment& segment) {
  Plant plant = experiment_plant(opt, shared, root);
  util::Prbs prbs(15, opt.prbs_hold_intervals,
                  std::uint32_t(0x1234 + 97 * resource_index(target)));
  const ExcitationSchedule schedule = excitation_schedule(opt);
  const std::array<PrbsLevel, 2> levels{
      prbs_level(plant, *opt.platform, target, false),
      prbs_level(plant, *opt.platform, target, true)};

  segment.width = plant.floorplan().sensor_node_index.size();
  std::vector<double> temps_before;
  power::ResourceVector last_sensed{};
  power::LeakageModel leak(fitted_leakage);
  double alpha_sum = 0.0;
  std::size_t alpha_count = 0;

  for (std::size_t k = 0; k < schedule.total; ++k) {
    const bool bit = prbs.next();
    const PrbsLevel& level = levels[bit ? 1 : 0];
    plant.apply(level.config);

    plant.read_temps_into(temps_before);
    const power::ResourceVector sensed =
        plant.read_rails(interval(plant, shared, level.demand));

    if (k >= schedule.warmup) {
      segment.append(temps_before.data(), sensed);
      last_sensed = sensed;
      if (bit && target != Resource::kMem) {
        double t_mean = 0.0;
        for (double x : temps_before) t_mean += x / double(temps_before.size());
        const double dyn = sensed[resource_index(target)] -
                           leak.power_w(t_mean, level.knob_v);
        if (dyn > 0.0 && level.knob_f > 0.0) {
          alpha_sum +=
              power::alpha_c_from_power(dyn, level.knob_v, level.knob_f);
          ++alpha_count;
        }
      }
    }
  }
  // Close the segment with a final temperature sample so the last recorded
  // (T, P) pair has a successor.
  plant.read_temps_into(temps_before);
  segment.append(temps_before.data(), last_sensed);

  return alpha_count > 0 ? alpha_sum / double(alpha_count) : 0.0;
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
  double alpha_c_high = 0.0;  ///< mean alphaC estimate over high-bit samples
  std::exception_ptr furnace_error;
  std::exception_ptr excitation_error;

  /// `furnace_rng` and `excitation_rng` are the root stream advanced to the
  /// draw positions the serial order reaches each stage at; the excitation
  /// records into `excitation`.
  void run(const CalibrationOptions& opt, const ExperimentTemplate& shared,
           Resource r, util::Rng furnace_rng, util::Rng excitation_rng,
           sysid::TraceSegment& excitation) noexcept {
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
      alpha_c_high = excitation_run(opt, shared, excitation_rng, r,
                                    leakage_fit.params, excitation);
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

  // The serial workflow draws from the root stream only through experiment
  // Plants, kRootDraws each: every furnace stage in resource order, then one
  // excitation plant per resource. Each pipeline starts from the positions
  // that order gives it.
  std::array<std::size_t, power::kResourceCount> furnace_offset{};
  std::size_t furnace_draws = 0;
  for (Resource r : power::all_resources()) {
    furnace_offset[resource_index(r)] = furnace_draws;
    furnace_draws += kRootDraws * furnace_op_count(r) *
                     options.furnace_temps_c.size();
  }
  std::array<Pipeline, power::kResourceCount> pipelines;
  // The pipelines record straight into the artifacts' segments, whose
  // buffers are reserved here before any worker starts: memory a worker
  // allocates stays cached in that thread's malloc arena after it is freed
  // and raises the process's peak RSS.
  CalibrationArtifacts art;
  const ExcitationSchedule schedule = excitation_schedule(options);
  const std::size_t rows = schedule.total - schedule.warmup + 1;
  art.excitation_segments.resize(power::kResourceCount);
  for (sysid::TraceSegment& seg : art.excitation_segments) {
    seg.temps_c.reserve(rows * platform.floorplan.sensor_nodes.size());
    seg.powers_w.reserve(rows * power::kResourceCount);
  }
  // Compiled here, before any thread starts; the pipelines only read it.
  const ExperimentTemplate shared(options);
  auto run = [&](std::size_t i) {
    pipelines[i].run(options, shared, power::all_resources()[i],
                     advanced(root, furnace_offset[i]),
                     advanced(root, furnace_draws + kRootDraws * i),
                     art.excitation_segments[i]);
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

  for (std::size_t i = 0; i < power::kResourceCount; ++i) {
    Pipeline& p = pipelines[i];
    art.furnace_samples[i] = std::move(p.furnace_samples);
    art.leakage_fits[i] = p.leakage_fit;
    art.model.leakage[i] = p.leakage_fit.params;
    art.model.initial_alpha_c[i] = p.alpha_c_high;
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
