// Per-layer probes for the traced run. Each probe wraps calls into one
// module's public functions, on inputs taken from the workload's own runs:
//
//   thermal    RcNetwork::step (CompiledRcModel RK4) and PropagatorRcModel::step
//              on every registry floorplan
//   sim        Simulation::begin_step / plant().advance / finish_step, and the
//              profile_phases shares
//   core       DtpmGovernor::adjust, ThermalPredictor::predict,
//              compute_power_budget, replayed over recorded intervals
//   governors  ondemand decide + reactive adjust over the same intervals
//   sysid      one calibration per platform
//   util       QuantileSketch::add
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/dtpm_governor.hpp"
#include "core/power_budget.hpp"
#include "core/thermal_predictor.hpp"
#include "governors/policy_registry.hpp"
#include "sim/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/platform_registry.hpp"
#include "sim/simulation.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/lti_propagator.hpp"
#include "util/quantile_sketch.hpp"

namespace perfbench {

namespace sim = dtpm::sim;
namespace governors = dtpm::governors;
namespace util = dtpm::util;

namespace {

/// Plant substeps timed per engine and platform.
constexpr int kThermalSteps = 20000;
/// Every n-th control interval of a sampled run gets its own spans.
constexpr std::size_t kIntervalStride = 8;
constexpr std::size_t kSketchAdds = 200000;

void probe_thermal(Tracer& tracer, Report& report) {
  const double dt = sim::ExperimentConfig{}.plant_substep_s;
  std::size_t steps = 0;
  double checksum = 0.0;
  for (const std::string& name : platform_names()) {
    const dtpm::thermal::Floorplan plan = dtpm::thermal::build_floorplan(
        sim::PlatformRegistry::instance().get(name)->floorplan);
    std::vector<double> power(plan.network.node_count(), 0.0);
    for (std::size_t i = 0; i < power.size(); ++i) {
      if (!plan.network.node(i).is_boundary) power[i] = 0.75;
    }
    dtpm::thermal::RcNetwork rk4 = plan.network;
    {
      Tracer::Scope s(tracer, "thermal.rk4_substep");
      for (int i = 0; i < kThermalSteps; ++i) rk4.step(dt, power);
    }
    dtpm::thermal::RcNetwork lti = plan.network;
    dtpm::thermal::PropagatorRcModel propagator;
    {
      Tracer::Scope s(tracer, "thermal.propagator_substep");
      for (int i = 0; i < kThermalSteps; ++i) propagator.step(lti, dt, power);
    }
    // Both engines integrate the same plant: they must land together.
    for (std::size_t i = 0; i < power.size(); ++i) {
      report.check(std::abs(rk4.temperature_c(i) - lti.temperature_c(i)) < 1e-3,
                   "propagator and RK4 diverge on " + name, 0);
      checksum += rk4.temperature_c(i);
    }
    steps += kThermalSteps;
  }
  report.check(checksum > 0.0, "thermal probe produced no temperatures", 0);
  report.metric("thermal.rk4_substep_ns",
                tracer.total_ns("thermal.rk4_substep") / double(steps), "ns");
  report.metric("thermal.propagator_substep_ns",
                tracer.total_ns("thermal.propagator_substep") / double(steps),
                "ns");
}

/// Split-phase stepping of each sampled config; the result must equal
/// run_experiment's. Returns per-run peak temperatures for the sketch probe.
std::vector<double> probe_single_runs(
    const std::vector<sim::ExperimentConfig>& configs, Tracer& tracer,
    Report& report) {
  std::vector<double> peaks;
  std::size_t traced_intervals = 0;
  dtpm::util::PhaseCycles phases;
  for (sim::ExperimentConfig config : configs) {
    config.record_trace = false;
    const auto* model = model_for(config);
    sim::Simulation simulation(config, model);
    for (std::size_t k = 0;; ++k) {
      if (k % kIntervalStride != 0) {
        if (!simulation.step()) break;
        continue;
      }
      ++traced_intervals;
      bool more = false;
      {
        Tracer::Scope s(tracer, "sim.control");
        more = simulation.begin_step();
      }
      if (!more) break;
      sim::PlantIntervalResult interval;
      {
        Tracer::Scope s(tracer, "sim.plant");
        interval = simulation.plant().advance(
            simulation.staged_demand(), simulation.staged_background(),
            simulation.staged_instance(), simulation.plant_substeps(),
            simulation.plant_sub_dt_s());
      }
      Tracer::Scope s(tracer, "sim.finish");
      if (!simulation.finish_step(interval)) break;
    }
    const sim::RunResult stepped = simulation.finish();
    const sim::RunResult reference = sim::run_experiment(config, model);
    report.check(summary_without_wall(stepped) == summary_without_wall(reference),
                 "split-phase stepping disagrees with run_experiment on " +
                     config.benchmark);
    peaks.push_back(stepped.max_temp_stats.max());

    sim::ExperimentConfig profiled = config;
    profiled.profile_phases = true;
    phases += sim::run_experiment(profiled, model).phase_cycles;
  }
  const double n = double(std::max<std::size_t>(traced_intervals, 1));
  report.metric("sim.control_us", tracer.total_ns("sim.control") / 1e3 / n, "us");
  report.metric("sim.plant_us", tracer.total_ns("sim.plant") / 1e3 / n, "us");
  report.metric("sim.finish_us", tracer.total_ns("sim.finish") / 1e3 / n, "us");
  const double total = double(std::max<std::uint64_t>(phases.total(), 1));
  for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
    report.metric(std::string("sim.phase_") + util::kPhaseNames[p],
                  100.0 * double(phases.ticks[p]) / total, "%");
  }
  return peaks;
}

struct RecordedInterval {
  dtpm::soc::PlatformView view;
  governors::Decision proposal;
  governors::Decision decision;
};

/// Forwards to a registry policy and logs what it saw and decided.
class RecordingPolicy final : public governors::ThermalPolicy {
 public:
  RecordingPolicy(std::unique_ptr<governors::ThermalPolicy> inner,
                  std::vector<RecordedInterval>& log)
      : inner_(std::move(inner)), log_(log) {}

  governors::Decision adjust(const dtpm::soc::PlatformView& view,
                             const governors::Decision& proposal) override {
    const governors::Decision decision = inner_->adjust(view, proposal);
    log_.push_back({view, proposal, decision});
    return decision;
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<governors::ThermalPolicy> inner_;
  std::vector<RecordedInterval>& log_;
};

/// The factory context ControlStack builds for `config` (tables borrowed
/// from `tables`, which must outlive the factory call).
struct PolicyTables {
  dtpm::power::OppTable big, little, gpu;
};

governors::PolicyContext context_for(const sim::ExperimentConfig& config,
                                     const dtpm::sysid::IdentifiedPlatformModel* model,
                                     const PolicyTables& tables) {
  governors::PolicyContext context;
  context.model = model;
  context.dtpm = &config.dtpm;
  context.params = &config.policy_params;
  context.big_opps = &tables.big;
  context.little_opps = &tables.little;
  context.gpu_opps = &tables.gpu;
  return context;
}

bool same(const governors::Decision& a, const governors::Decision& b) {
  return a.soc == b.soc && a.fan == b.fan;
}

/// Records each sampled config's intervals under the dtpm policy, then
/// replays them through fresh policy instances with spans per layer.
void probe_policies(const std::vector<sim::ExperimentConfig>& configs,
                    Tracer& tracer, Report& report) {
  std::size_t calls = 0;
  for (sim::ExperimentConfig config : configs) {
    config.record_trace = false;
    sim::set_policy(config, "dtpm");
    const auto* model = model_for(config);
    const sim::PlatformPtr platform = sim::resolved_platform(config);
    const PolicyTables tables{platform->big_opp_table(),
                              platform->little_opp_table(),
                              platform->gpu_opp_table()};
    const governors::PolicyContext context = context_for(config, model, tables);

    std::vector<RecordedInterval> log;
    {
      sim::Simulation simulation(
          config, model,
          std::make_unique<RecordingPolicy>(
              governors::PolicyRegistry::instance().make("dtpm", context), log));
      while (simulation.step()) {
      }
      simulation.finish();
    }
    calls += log.size();

    auto dtpm = governors::PolicyRegistry::instance().make("dtpm", context);
    std::size_t mismatches = 0;
    {
      Tracer::Scope s(tracer, "core.adjust");
      for (const RecordedInterval& r : log) {
        if (!same(dtpm->adjust(r.view, r.proposal), r.decision)) ++mismatches;
      }
    }
    report.check(mismatches == 0, "dtpm replay decided differently", 0);

    const dtpm::core::ThermalPredictor predictor(model->thermal);
    const unsigned horizon = config.dtpm.horizon_steps;
    double sum = 0.0;
    std::vector<double> temps(4), powers(4);
    {
      Tracer::Scope s(tracer, "core.predict");
      for (const RecordedInterval& r : log) {
        temps.assign(r.view.big_temps_c.begin(), r.view.big_temps_c.end());
        powers.assign(r.view.rail_power_w.begin(), r.view.rail_power_w.end());
        sum += predictor.predict_max(temps, powers, horizon);
      }
    }
    {
      Tracer::Scope s(tracer, "core.budget");
      for (const RecordedInterval& r : log) {
        temps.assign(r.view.big_temps_c.begin(), r.view.big_temps_c.end());
        sum += dtpm::core::compute_power_budget(
                   predictor, horizon, temps, r.view.rail_power_w,
                   dtpm::power::Resource::kBigCluster,
                   config.dtpm.t_max_c - config.dtpm.guard_band_c,
                   0.1 * r.view.rail_power_w[0], config.dtpm.row_policy)
                   .total_budget_w;
      }
    }
    report.check(std::isfinite(sum), "predictor/budget replay is not finite", 0);

    auto ondemand = governors::GovernorRegistry::instance().make("ondemand", context);
    auto reactive = governors::PolicyRegistry::instance().make("reactive", context);
    mismatches = 0;
    {
      Tracer::Scope s(tracer, "governors.decide");
      for (const RecordedInterval& r : log) {
        if (!same(ondemand->decide(r.view), r.proposal)) ++mismatches;
        reactive->adjust(r.view, r.proposal);
      }
    }
    report.check(mismatches == 0, "ondemand replay proposed differently", 0);
  }
  const double n = double(std::max<std::size_t>(calls, 1));
  report.metric("core.adjust_us", tracer.total_ns("core.adjust") / 1e3 / n, "us");
  report.metric("core.predict_us", tracer.total_ns("core.predict") / 1e3 / n, "us");
  report.metric("core.budget_us", tracer.total_ns("core.budget") / 1e3 / n, "us");
  report.metric("governors.decide_us",
                tracer.total_ns("governors.decide") / 1e3 / (2.0 * n), "us");
}

void probe_calibration(Tracer& tracer, Report& report) {
  const std::vector<std::string> names = platform_names();
  for (const std::string& name : names) {
    sim::CalibrationOptions options;
    options.platform = sim::PlatformRegistry::instance().get(name);
    Tracer::Scope s(tracer, "sysid.calibrate");
    const dtpm::sysid::IdentifiedPlatformModel model =
        sim::calibrate_platform(options);
    report.check(model.thermal.a.rows() > 0, "calibration of " + name +
                                                 " produced an empty model", 0);
  }
  report.metric("sysid.calibrate_ms",
                tracer.total_ns("sysid.calibrate") / 1e6 / double(names.size()),
                "ms");
}

void probe_sketch(const std::vector<double>& values, Tracer& tracer,
                  Report& report) {
  util::QuantileSketch sketch;
  {
    Tracer::Scope s(tracer, "util.sketch_add");
    for (std::size_t i = 0; i < kSketchAdds; ++i) {
      sketch.add(values[i % values.size()] + double(i % 97) * 1e-3);
    }
  }
  report.check(std::isfinite(sketch.quantile(0.5)), "sketch median is not finite", 0);
  report.metric("util.sketch_add_ns",
                tracer.total_ns("util.sketch_add") / double(kSketchAdds), "ns");
}

}  // namespace

void probe_layers(const std::vector<sim::ExperimentConfig>& configs,
                  Tracer& tracer, Report& report) {
  probe_thermal(tracer, report);
  const std::vector<double> peaks = probe_single_runs(configs, tracer, report);
  probe_policies(configs, tracer, report);
  probe_calibration(tracer, report);
  probe_sketch(peaks, tracer, report);
}

}  // namespace perfbench
