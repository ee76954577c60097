#include "analysis/analyzer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/stability.hpp"
#include "soc/soc.hpp"
#include "thermal/floorplan.hpp"

namespace dtpm::analysis {

namespace {

/// The platform's distinct cooling states as (label, conductance), sorted
/// ascending by conductance. A fanless floorplan collapses to one "passive"
/// state; a fan whose speeds share a conductance is deduplicated (first
/// label wins).
std::vector<std::pair<std::string, double>> cooling_states(
    const sim::PlatformDescriptor& platform) {
  if (!platform.has_fan()) {
    return {{"passive", platform.fan.conductance_off}};
  }
  const std::array<std::pair<const char*, double>, 4> speeds = {{
      {"off", platform.fan.conductance_off},
      {"low", platform.fan.conductance_low},
      {"half", platform.fan.conductance_half},
      {"full", platform.fan.conductance_full},
  }};
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [label, conductance] : speeds) {
    const bool seen =
        std::any_of(out.begin(), out.end(), [&](const auto& entry) {
          return entry.second == conductance;
        });
    if (!seen) out.emplace_back(label, conductance);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second < b.second;
  });
  return out;
}

bool point_is_safe(const OperatingPointAnalysis& point, double t_max_c) {
  return point.converged && point.stable && point.max_core_temp_c <= t_max_c;
}

EnvelopePoint derive_envelope(const CoolingStateAnalysis& best_cooling,
                              double ambient_c, double t_max_c) {
  EnvelopePoint envelope;
  envelope.ambient_c = ambient_c;
  const std::vector<OperatingPointAnalysis>& points = best_cooling.points;
  for (std::size_t i = points.size(); i-- > 0;) {
    if (point_is_safe(points[i], t_max_c)) {
      envelope.max_safe_opp_index = int(i);
      envelope.max_safe_frequency_hz = points[i].frequency_hz;
      break;
    }
  }
  if (envelope.max_safe_opp_index < 0) {
    envelope.limit = "none";
  } else if (std::size_t(envelope.max_safe_opp_index) + 1 == points.size()) {
    envelope.limit = "opp-table-max";
  } else {
    const OperatingPointAnalysis& blocked =
        points[std::size_t(envelope.max_safe_opp_index) + 1];
    envelope.limit =
        (!blocked.converged || !blocked.stable) ? "unstable" : "t-max";
  }
  return envelope;
}

}  // namespace

workload::Demand analysis_demand(const AnalysisWorkload& workload) {
  workload::Demand demand;
  for (int i = 0; i < workload.threads; ++i) {
    workload::ThreadDemand thread;
    thread.duty = workload.duty;
    thread.cpu_activity = workload.cpu_activity;
    thread.mem_intensity = workload.mem_intensity;
    thread.counts_progress = false;
    demand.threads.push_back(thread);
  }
  demand.gpu_load = workload.gpu_load;
  return demand;
}

OperatingPointAnalysis analyze_operating_point(
    const sim::PlatformDescriptor& platform,
    const OperatingPointRequest& request, const EquilibriumOptions& options,
    std::vector<double>* equilibrium_temps_c) {
  thermal::Floorplan floorplan = thermal::build_floorplan(platform.floorplan);
  soc::Soc soc(platform.power, platform.perf, platform.big_opp_table(),
               platform.little_opp_table(), platform.gpu_opp_table());
  thermal::RcNetwork& rc = floorplan.network;

  if (floorplan.has_fan_edge()) {
    rc.set_edge_conductance(floorplan.fan_edge,
                            request.cooling_conductance_w_per_k);
  }
  rc.set_boundary_temperature_c(floorplan.ambient_node_index,
                                request.ambient_c);
  // Start every free node a little above ambient: any start inside the
  // basin converges to the same fixed point, and a warm one converges fast.
  for (std::size_t i = 0; i < rc.node_count(); ++i) {
    if (!rc.node(i).is_boundary) {
      rc.set_temperature_c(i, request.ambient_c + 10.0);
    }
  }

  const power::Opp& opp = soc.big_opps().at(request.big_opp_index);
  soc::SocConfig config;
  config.active_cluster = soc::ClusterId::kBig;
  config.big_freq_hz = opp.frequency_hz;
  config.little_freq_hz = soc.little_opps().min().frequency_hz;
  config.gpu_freq_hz = soc.gpu_opps().min().frequency_hz;
  soc.apply(config);

  // The schedule (placement, contention, activity) is temperature-
  // independent: solve it once, then evaluate the plant's power model.
  soc.solve_schedule(request.demand, {});
  CoupledPowerModel model(floorplan, soc);

  const EquilibriumResult equilibrium = solve_coupled_equilibrium(
      rc,
      [&model](const std::vector<double>& temps_c,
               std::vector<double>& node_power_w) {
        model.node_power(temps_c, node_power_w);
      },
      options);

  OperatingPointAnalysis out;
  out.opp_index = request.big_opp_index;
  out.frequency_hz = opp.frequency_hz;
  out.voltage_v = opp.voltage_v;
  out.converged = equilibrium.converged;
  out.diverged = equilibrium.diverged;
  out.iterations = equilibrium.iterations;
  out.residual_c = equilibrium.residual_c;

  const std::vector<double>& temps = rc.temperatures_c();
  for (std::size_t i = 0; i < rc.node_count(); ++i) {
    if (!rc.node(i).is_boundary) {
      out.max_temp_c = std::max(out.max_temp_c, temps[i]);
    }
  }
  for (std::size_t node : floorplan.sensor_node_index) {
    out.max_core_temp_c = std::max(out.max_core_temp_c, temps[node]);
  }
  if (equilibrium.converged) {
    const StabilityReport stability = analyze_stability(floorplan, model);
    out.loop_gain = stability.loop_gain;
    out.stability_margin = stability.stability_margin;
    out.spectral_abscissa_per_s = stability.spectral_abscissa_per_s;
    out.stable = stability.stable;
    std::vector<double> node_power;
    model.node_power(temps, node_power);
    for (double p : node_power) out.total_power_w += p;
  }
  if (equilibrium_temps_c != nullptr) *equilibrium_temps_c = temps;
  return out;
}

PlatformAnalysis analyze_platform(const sim::PlatformDescriptor& platform,
                                  const AnalysisOptions& options) {
  platform.validate();
  if (options.ambients_c.empty()) {
    throw std::invalid_argument("analyze_platform: empty ambient sweep");
  }

  PlatformAnalysis analysis;
  analysis.platform = platform.name;
  analysis.t_max_c = platform.default_t_max_c;
  analysis.runaway_abort_temp_c = platform.resolved_runaway_abort_temp_c();
  analysis.workload = options.workload;

  const std::vector<std::pair<std::string, double>> states =
      cooling_states(platform);
  const workload::Demand demand = analysis_demand(options.workload);
  const std::size_t opp_count = platform.big_opp_table().size();

  for (double ambient : options.ambients_c) {
    AmbientAnalysis per_ambient;
    per_ambient.ambient_c = ambient;
    for (const auto& [label, conductance] : states) {
      CoolingStateAnalysis cooling;
      cooling.label = label;
      cooling.conductance_w_per_k = conductance;
      for (std::size_t i = 0; i < opp_count; ++i) {
        OperatingPointRequest request;
        request.big_opp_index = i;
        request.cooling_conductance_w_per_k = conductance;
        request.ambient_c = ambient;
        request.demand = demand;
        cooling.points.push_back(
            analyze_operating_point(platform, request, options.equilibrium));
      }
      per_ambient.cooling.push_back(std::move(cooling));
    }
    // Best cooling = highest conductance = last entry (sorted ascending).
    analysis.envelope.push_back(derive_envelope(
        per_ambient.cooling.back(), ambient, platform.default_t_max_c));
    analysis.ambients.push_back(std::move(per_ambient));
  }
  return analysis;
}

util::JsonValue to_json(const PlatformAnalysis& analysis) {
  using util::JsonArray;
  using util::JsonObject;
  using util::JsonValue;

  JsonValue json((JsonObject()));
  json.set("platform", analysis.platform);
  json.set("t_max_c", analysis.t_max_c);
  json.set("runaway_abort_temp_c", analysis.runaway_abort_temp_c);
  {
    JsonValue workload((JsonObject()));
    workload.set("threads", analysis.workload.threads);
    workload.set("duty", analysis.workload.duty);
    workload.set("cpu_activity", analysis.workload.cpu_activity);
    workload.set("mem_intensity", analysis.workload.mem_intensity);
    workload.set("gpu_load", analysis.workload.gpu_load);
    json.set("workload", std::move(workload));
  }
  {
    JsonArray envelope;
    for (const EnvelopePoint& point : analysis.envelope) {
      JsonValue entry((JsonObject()));
      entry.set("ambient_c", point.ambient_c);
      entry.set("max_safe_opp_index", point.max_safe_opp_index);
      entry.set("max_safe_frequency_mhz", point.max_safe_frequency_hz / 1e6);
      entry.set("limit", point.limit);
      envelope.push_back(std::move(entry));
    }
    json.set("envelope", JsonValue(std::move(envelope)));
  }
  {
    JsonArray ambients;
    for (const AmbientAnalysis& per_ambient : analysis.ambients) {
      JsonValue ambient_json((JsonObject()));
      ambient_json.set("ambient_c", per_ambient.ambient_c);
      JsonArray cooling_array;
      for (const CoolingStateAnalysis& cooling : per_ambient.cooling) {
        JsonValue cooling_json((JsonObject()));
        cooling_json.set("state", cooling.label);
        cooling_json.set("conductance_w_per_k", cooling.conductance_w_per_k);
        JsonArray opps;
        for (const OperatingPointAnalysis& point : cooling.points) {
          JsonValue point_json((JsonObject()));
          point_json.set("opp_index", point.opp_index);
          point_json.set("frequency_mhz", point.frequency_hz / 1e6);
          point_json.set("voltage_v", point.voltage_v);
          point_json.set("converged", point.converged);
          point_json.set("diverged", point.diverged);
          point_json.set("stable", point.stable);
          point_json.set("iterations", point.iterations);
          point_json.set("loop_gain", point.loop_gain);
          point_json.set("stability_margin", point.stability_margin);
          point_json.set("spectral_abscissa_per_s",
                         point.spectral_abscissa_per_s);
          point_json.set("max_core_temp_c", point.max_core_temp_c);
          point_json.set("max_temp_c", point.max_temp_c);
          point_json.set("total_power_w", point.total_power_w);
          opps.push_back(std::move(point_json));
        }
        cooling_json.set("opps", JsonValue(std::move(opps)));
        cooling_array.push_back(std::move(cooling_json));
      }
      ambient_json.set("cooling", JsonValue(std::move(cooling_array)));
      ambients.push_back(std::move(ambient_json));
    }
    json.set("ambients", JsonValue(std::move(ambients)));
  }
  return json;
}

void validate_platform_stability(const sim::PlatformDescriptor& platform) {
  // The same operating point calibration's furnace equilibrates at: lowest
  // OPP, best cooling, native ambient, light characterization load. A
  // platform that diverges or is runaway-unstable here cannot be calibrated
  // or simulated meaningfully at any operating point above it.
  AnalysisWorkload light;
  light.threads = 1;
  light.cpu_activity = 0.25;
  light.mem_intensity = 0.05;

  OperatingPointRequest request;
  request.big_opp_index = 0;
  request.cooling_conductance_w_per_k = std::max(
      {platform.fan.conductance_off, platform.fan.conductance_low,
       platform.fan.conductance_half, platform.fan.conductance_full});
  request.ambient_c = platform.floorplan.ambient_temp_c();
  request.demand = analysis_demand(light);

  const OperatingPointAnalysis point =
      analyze_operating_point(platform, request);
  if (!point.converged || !point.stable) {
    std::ostringstream message;
    message << "platform '" << platform.name
            << "': thermally unstable at the registration check (min OPP, "
               "best cooling, ambient "
            << request.ambient_c << " C): ";
    if (point.diverged) {
      message << "equilibrium iteration diverged (leakage-temperature "
                 "runaway) after "
              << point.iterations << " iterations";
    } else if (!point.converged) {
      message << "equilibrium did not converge (residual " << point.residual_c
              << " C after " << point.iterations << " iterations)";
    } else {
      message << "equilibrium at " << point.max_core_temp_c
              << " C is runaway-unstable (loop gain " << point.loop_gain
              << " >= 1)";
    }
    throw std::invalid_argument(message.str());
  }
}

}  // namespace dtpm::analysis
