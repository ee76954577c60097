// Platform-descriptor lint: floorplan graph checks (L1xx), OPP-table checks
// (L2xx), platform-local cross-field checks, and the opt-in deep stability
// pre-check (L601). Works on any PlatformDescriptor -- parsed from JSON or
// built in C++ -- so `dtpm lint --platforms` can sweep the whole registry.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "lint/lint.hpp"
#include "util/json.hpp"
#include "util/names.hpp"

namespace dtpm::lint {

namespace {

/// Compact numeric rendering for messages ("0.9", "63", "1.5e+09").
std::string num(double value) {
  return util::json_write(util::JsonValue(value), 0);
}

std::string mhz(double frequency_hz) {
  return num(frequency_hz / 1e6) + " MHz";
}

void lint_floorplan(const thermal::FloorplanSpec& spec,
                    const std::string& path, util::DiagnosticSink& sink) {
  std::map<std::string, std::size_t> index;
  std::vector<std::string> node_names;
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    index.emplace(spec.nodes[i].name, i);
    node_names.push_back(spec.nodes[i].name);
  }

  // L102: a role (heat injection site, sensor site) naming no node. The
  // JSON parser rejects these too, but C++-built descriptors arrive here
  // unchecked.
  auto check_role = [&](const std::string& name, const std::string& at) {
    if (name.empty() || index.count(name) != 0) return true;
    std::string message = "role references unknown node '" + name + "'";
    const std::string suggestion = util::closest_match(name, node_names);
    if (!suggestion.empty()) message += ", did you mean '" + suggestion + "'?";
    sink.error("L102", at, message);
    return false;
  };
  const auto heat_roles = spec.heat_source_roles();
  for (const auto& [role, name] : heat_roles) {
    check_role(name, path + "." + role);
  }

  // L109: two heat sources on one node. The plant writes one source per
  // node, so every earlier source's heat would be silently dropped.
  for (auto later = heat_roles.begin(); later != heat_roles.end(); ++later) {
    const std::string& name = later->second;
    const auto earlier =
        std::find_if(heat_roles.begin(), later,
                     [&](const auto& role) { return role.second == name; });
    if (name.empty() || earlier == later) continue;
    sink.error("L109", path + "." + later->first,
               later->first + " shares node '" + name + "' with " +
                   earlier->first +
                   "; the plant heats a node from one source only -- give "
                   "each heat source its own node");
  }
  bool sensors_resolved = true;
  for (std::size_t i = 0; i < spec.sensor_nodes.size(); ++i) {
    sensors_resolved &=
        check_role(spec.sensor_nodes[i],
                   path + ".sensor_nodes[" + std::to_string(i) + "]");
  }

  // L103/L104: non-positive thermal parameters. A boundary node's
  // capacitance is unused (its temperature is pinned), so only heat-bearing
  // nodes are held to it.
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    const thermal::ThermalNode& node = spec.nodes[i];
    if (!node.is_boundary && node.capacitance_j_per_k <= 0.0) {
      sink.error("L103",
                 path + ".nodes[" + std::to_string(i) + "].capacitance_j_per_k",
                 "non-positive capacitance (" + num(node.capacitance_j_per_k) +
                     " J/K) on node '" + node.name +
                     "' makes its temperature dynamics ill-defined");
    }
  }

  // Edge sweep: dangling endpoints (L102), self-loops (L108), non-positive
  // conductance (L104), duplicate pairs (L107).
  std::set<std::pair<std::string, std::string>> seen_pairs;
  for (std::size_t i = 0; i < spec.edges.size(); ++i) {
    const thermal::FloorplanEdgeSpec& edge = spec.edges[i];
    const std::string edge_path = path + ".edges[" + std::to_string(i) + "]";
    const bool a_known = check_role(edge.node_a, edge_path + ".a");
    const bool b_known = check_role(edge.node_b, edge_path + ".b");
    if (edge.conductance_w_per_k <= 0.0) {
      sink.error("L104", edge_path + ".conductance_w_per_k",
                 "non-positive conductance (" + num(edge.conductance_w_per_k) +
                     " W/K); the edge conducts no heat");
    }
    if (!a_known || !b_known) continue;
    if (edge.node_a == edge.node_b) {
      sink.error("L108", edge_path,
                 "self-loop edge on node '" + edge.node_a +
                     "'; an edge must couple two distinct nodes");
      continue;
    }
    const auto pair = std::minmax(edge.node_a, edge.node_b);
    if (!seen_pairs.insert(pair).second) {
      sink.warning("L107", edge_path,
                   "duplicate edge between '" + pair.first + "' and '" +
                       pair.second +
                       "'; parallel conductances add -- merge into one edge");
    }
  }

  // L101: every node must have a conductance path to a boundary node,
  // otherwise its heat has nowhere to go and its temperature can only run
  // away. BFS from the boundary set over the (valid) edges.
  std::vector<std::size_t> boundary;
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    if (spec.nodes[i].is_boundary) boundary.push_back(i);
  }
  if (boundary.empty()) {
    sink.error("L101", path + ".nodes",
               "no boundary (ambient) node; every node is thermally "
               "disconnected from the environment");
  } else {
    std::vector<std::vector<std::size_t>> adjacency(spec.nodes.size());
    for (const thermal::FloorplanEdgeSpec& edge : spec.edges) {
      const auto a = index.find(edge.node_a);
      const auto b = index.find(edge.node_b);
      if (a == index.end() || b == index.end() || a->second == b->second) {
        continue;  // already reported above
      }
      adjacency[a->second].push_back(b->second);
      adjacency[b->second].push_back(a->second);
    }
    std::vector<bool> reached(spec.nodes.size(), false);
    std::vector<std::size_t> frontier = boundary;
    for (std::size_t i : frontier) reached[i] = true;
    while (!frontier.empty()) {
      const std::size_t node = frontier.back();
      frontier.pop_back();
      for (std::size_t next : adjacency[node]) {
        if (!reached[next]) {
          reached[next] = true;
          frontier.push_back(next);
        }
      }
    }
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
      if (!reached[i]) {
        sink.error("L101", path + ".nodes[" + std::to_string(i) + "]",
                   "node '" + spec.nodes[i].name +
                       "' has no conductance path to a boundary node; its "
                       "temperature can only run away");
      }
    }
  }

  // L106: a per-core hotspot no sensor observes. The policies regulate off
  // sensor readings, so an uninstrumented hotspot is invisible to control.
  if (sensors_resolved && !spec.sensor_nodes.empty()) {
    for (const std::string& core : spec.core_nodes) {
      if (index.count(core) != 0 &&
          std::find(spec.sensor_nodes.begin(), spec.sensor_nodes.end(),
                    core) == spec.sensor_nodes.end()) {
        sink.warning("L106", path + ".sensor_nodes",
                     "core hotspot '" + core +
                         "' has no sensor site; thermal policies cannot "
                         "observe it");
      }
    }
  }
}

void lint_opp_table(const std::vector<power::Opp>& opps,
                    const std::string& path, util::DiagnosticSink& sink) {
  if (opps.empty()) {
    sink.error("L201", path,
               "empty operating-point table; the cluster has no selectable "
               "frequency");
    return;
  }
  for (std::size_t i = 1; i < opps.size(); ++i) {
    const std::string row = path + "[" + std::to_string(i) + "]";
    if (opps[i].frequency_hz == opps[i - 1].frequency_hz) {
      sink.error("L203", row,
                 "duplicate operating point: " + mhz(opps[i].frequency_hz) +
                     " appears twice");
    } else if (opps[i].frequency_hz < opps[i - 1].frequency_hz) {
      sink.error("L202", row,
                 "operating points must be sorted by ascending frequency (" +
                     mhz(opps[i].frequency_hz) + " after " +
                     mhz(opps[i - 1].frequency_hz) + ")");
    }
    if (opps[i].voltage_v < opps[i - 1].voltage_v) {
      sink.warning("L204", row + ".voltage_v",
                   "voltage drops from " + num(opps[i - 1].voltage_v) +
                       " V to " + num(opps[i].voltage_v) +
                       " V as frequency rises; DVFS rows are normally "
                       "voltage-monotone -- check for swapped rows");
    }
  }
}

}  // namespace

void lint_platform(const sim::PlatformDescriptor& descriptor,
                   const std::string& path, util::DiagnosticSink& sink,
                   const LintOptions& options) {
  lint_floorplan(descriptor.floorplan, path + ".floorplan", sink);
  lint_opp_table(descriptor.big_opps, path + ".big_opps", sink);
  lint_opp_table(descriptor.little_opps, path + ".little_opps", sink);
  lint_opp_table(descriptor.gpu_opps, path + ".gpu_opps", sink);

  // L205: a little cluster clocking at or above the big cluster's ceiling
  // usually means the two tables were swapped.
  if (!descriptor.big_opps.empty() && !descriptor.little_opps.empty()) {
    const double big_max = descriptor.big_opps.back().frequency_hz;
    const double little_max = descriptor.little_opps.back().frequency_hz;
    if (little_max >= big_max) {
      sink.warning("L205", path + ".little_opps",
                   "little-cluster top frequency (" + mhz(little_max) +
                       ") is not below the big-cluster top (" + mhz(big_max) +
                       "); the cluster tables may be swapped");
    }
  }

  // L105: a fan table that varies (conductance steps or powered speeds) on
  // a floorplan with no fan-modulated edge -- fan actuation would be a
  // silent no-op. The passive idiom (all speeds equal, zero power) is the
  // documented way to express "fanless" and does not trigger.
  if (!descriptor.floorplan.has_fan_edge()) {
    const thermal::FanParams& fan = descriptor.fan;
    const bool varies = fan.conductance_low != fan.conductance_off ||
                        fan.conductance_half != fan.conductance_off ||
                        fan.conductance_full != fan.conductance_off ||
                        fan.power_off != 0.0 || fan.power_low != 0.0 ||
                        fan.power_half != 0.0 || fan.power_full != 0.0;
    if (varies) {
      sink.warning("L105", path + ".fan",
                   "fan table varies but the floorplan has no fan-modulated "
                   "edge; fan actuation is a silent no-op on this platform");
    }
  }

  // L302: sensor noise above the quantization step means readings dither
  // across quantization levels every interval -- usually a units mistake.
  if (descriptor.temp_sensor.quantization_c > 0.0 &&
      descriptor.temp_sensor.noise_stddev_c >
          descriptor.temp_sensor.quantization_c) {
    sink.warning("L302", path + ".temp_sensor.noise_stddev_c",
                 "sensor noise (sigma = " +
                     num(descriptor.temp_sensor.noise_stddev_c) +
                     " C) exceeds the quantization step (" +
                     num(descriptor.temp_sensor.quantization_c) +
                     " C); readings will dither across quantization levels");
  }

  // L601 (opt-in --deep): the coupled power-temperature equilibrium and
  // stability pre-check the registry applies at registration time.
  if (options.deep) {
    try {
      analysis::validate_platform_stability(descriptor);
    } catch (const std::exception& e) {
      sink.error("L601", path,
                 std::string("stability pre-check failed: ") + e.what());
    }
  }
}

}  // namespace dtpm::lint
