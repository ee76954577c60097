#include "thermal/floorplan.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace dtpm::thermal {

namespace {

/// Name -> index over the spec's nodes; duplicate or empty names throw.
std::unordered_map<std::string, std::size_t> node_index_map(
    const FloorplanSpec& spec) {
  std::unordered_map<std::string, std::size_t> map;
  map.reserve(spec.nodes.size());
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    const std::string& name = spec.nodes[i].name;
    if (name.empty()) {
      throw std::invalid_argument("floorplan: node " + std::to_string(i) +
                                  " has an empty name");
    }
    if (!map.emplace(name, i).second) {
      throw std::invalid_argument("floorplan: duplicate node name '" + name +
                                  "'");
    }
  }
  return map;
}

std::size_t resolve(const std::unordered_map<std::string, std::size_t>& map,
                    const std::string& name, const char* role) {
  const auto it = map.find(name);
  if (it == map.end()) {
    throw std::invalid_argument("floorplan: " + std::string(role) +
                                " references unknown node '" + name + "'");
  }
  return it->second;
}

}  // namespace

double FloorplanSpec::ambient_temp_c() const {
  for (const ThermalNode& node : nodes) {
    if (node.is_boundary) return node.initial_temp_c;
  }
  throw std::logic_error("FloorplanSpec: no boundary (ambient) node");
}

bool FloorplanSpec::has_fan_edge() const {
  for (const FloorplanEdgeSpec& edge : edges) {
    if (edge.fan_modulated) return true;
  }
  return false;
}

std::vector<std::pair<std::string, std::string>>
FloorplanSpec::heat_source_roles() const {
  std::vector<std::pair<std::string, std::string>> roles;
  for (std::size_t i = 0; i < core_nodes.size(); ++i) {
    roles.emplace_back("core_nodes[" + std::to_string(i) + "]", core_nodes[i]);
  }
  roles.emplace_back("little_node", little_node);
  roles.emplace_back("gpu_node", gpu_node);
  roles.emplace_back("mem_node", mem_node);
  return roles;
}

bool operator==(const ThermalNode& a, const ThermalNode& b) {
  return a.name == b.name && a.capacitance_j_per_k == b.capacitance_j_per_k &&
         a.initial_temp_c == b.initial_temp_c &&
         a.is_boundary == b.is_boundary;
}

bool operator==(const FloorplanEdgeSpec& a, const FloorplanEdgeSpec& b) {
  return a.node_a == b.node_a && a.node_b == b.node_b &&
         a.conductance_w_per_k == b.conductance_w_per_k &&
         a.fan_modulated == b.fan_modulated;
}

bool operator==(const FloorplanSpec& a, const FloorplanSpec& b) {
  return a.nodes == b.nodes && a.edges == b.edges &&
         a.core_nodes == b.core_nodes && a.little_node == b.little_node &&
         a.gpu_node == b.gpu_node && a.mem_node == b.mem_node &&
         a.sensor_nodes == b.sensor_nodes;
}

void validate_floorplan_spec(const FloorplanSpec& spec) {
  const auto map = node_index_map(spec);

  std::size_t boundary_count = 0;
  for (const ThermalNode& node : spec.nodes) {
    if (node.is_boundary) ++boundary_count;
  }
  if (boundary_count != 1) {
    throw std::invalid_argument(
        "floorplan: expected exactly one boundary (ambient) node, got " +
        std::to_string(boundary_count));
  }

  std::size_t fan_edges = 0;
  for (std::size_t i = 0; i < spec.edges.size(); ++i) {
    const std::string where = "edge " + std::to_string(i);
    resolve(map, spec.edges[i].node_a, where.c_str());
    resolve(map, spec.edges[i].node_b, where.c_str());
    if (spec.edges[i].fan_modulated) ++fan_edges;
  }
  if (fan_edges > 1) {
    throw std::invalid_argument(
        "floorplan: more than one fan-modulated edge");
  }

  if (spec.core_nodes.empty()) {
    throw std::invalid_argument("floorplan: core_nodes must not be empty");
  }
  if (spec.sensor_nodes.empty()) {
    throw std::invalid_argument("floorplan: sensor_nodes must not be empty");
  }
  auto check_role = [&](const std::string& name, const char* role) {
    const std::size_t i = resolve(map, name, role);
    if (spec.nodes[i].is_boundary) {
      throw std::invalid_argument("floorplan: " + std::string(role) +
                                  " must not be the boundary node ('" + name +
                                  "')");
    }
  };
  for (const std::string& name : spec.core_nodes) {
    check_role(name, "core_nodes");
  }
  check_role(spec.little_node, "little_node");
  check_role(spec.gpu_node, "gpu_node");
  check_role(spec.mem_node, "mem_node");
  for (const std::string& name : spec.sensor_nodes) {
    check_role(name, "sensor_nodes");
  }

  // The plant writes one heat source per node, so a shared node would
  // silently drop every earlier source's heat.
  const auto heat_roles = spec.heat_source_roles();
  for (auto later = heat_roles.begin(); later != heat_roles.end(); ++later) {
    const auto earlier = std::find_if(
        heat_roles.begin(), later,
        [&](const auto& role) { return role.second == later->second; });
    if (earlier != later) {
      throw std::invalid_argument("floorplan: " + earlier->first + " and " +
                                  later->first + " share node '" +
                                  later->second +
                                  "'; each heat source needs its own node");
    }
  }
}

Floorplan build_floorplan(const FloorplanSpec& spec) {
  validate_floorplan_spec(spec);
  const auto map = node_index_map(spec);

  std::vector<ThermalEdge> edges;
  edges.reserve(spec.edges.size());
  std::size_t fan_edge = Floorplan::kNoFanEdge;
  for (const FloorplanEdgeSpec& e : spec.edges) {
    if (e.fan_modulated) fan_edge = edges.size();
    edges.push_back(
        {map.at(e.node_a), map.at(e.node_b), e.conductance_w_per_k});
  }

  std::vector<std::size_t> core_index;
  core_index.reserve(spec.core_nodes.size());
  for (const std::string& name : spec.core_nodes) {
    core_index.push_back(map.at(name));
  }
  std::size_t ambient_index = 0;
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    if (spec.nodes[i].is_boundary) ambient_index = i;
  }
  std::vector<std::size_t> sensor_index;
  sensor_index.reserve(spec.sensor_nodes.size());
  for (const std::string& name : spec.sensor_nodes) {
    sensor_index.push_back(map.at(name));
  }
  return Floorplan{RcNetwork(spec.nodes, std::move(edges)),
                   fan_edge,
                   spec,
                   std::move(core_index),
                   map.at(spec.little_node),
                   map.at(spec.gpu_node),
                   map.at(spec.mem_node),
                   ambient_index,
                   std::move(sensor_index)};
}

Floorplan::HeatNodes Floorplan::heat_nodes() const {
  if (core_node_index.size() != 4) {
    throw std::logic_error(
        "Floorplan::heat_nodes: the SoC heats exactly four core nodes, got " +
        std::to_string(core_node_index.size()));
  }
  return {core_node_index[0], core_node_index[1], core_node_index[2],
          core_node_index[3], little_node_index,  gpu_node_index,
          mem_node_index};
}

FloorplanSpec default_floorplan_spec(const FloorplanParams& p) {
  FloorplanSpec spec;
  auto add = [&](const char* name, double cap, double initial_temp_c,
                 bool boundary = false) {
    spec.nodes.push_back({name, cap, initial_temp_c, boundary});
  };
  add("big0", p.big_core_capacitance, p.initial_temp_c);
  add("big1", p.big_core_capacitance, p.initial_temp_c);
  add("big2", p.big_core_capacitance, p.initial_temp_c);
  add("big3", p.big_core_capacitance, p.initial_temp_c);
  add("little", p.little_cluster_capacitance, p.initial_temp_c);
  add("gpu", p.gpu_capacitance, p.initial_temp_c);
  add("mem", p.mem_capacitance, p.initial_temp_c);
  add("case", p.case_capacitance, p.initial_temp_c);
  add("board", p.board_capacitance, p.board_initial_temp_c);
  add("ambient", 1.0, p.ambient_temp_c, /*boundary=*/true);

  auto link = [&](const char* a, const char* b, double g,
                  bool fan_modulated = false) {
    spec.edges.push_back({a, b, g, fan_modulated});
  };
  // Big-core 2x2 grid.
  link("big0", "big1", p.big_to_big_adjacent);
  link("big2", "big3", p.big_to_big_adjacent);
  link("big0", "big2", p.big_to_big_adjacent);
  link("big1", "big3", p.big_to_big_adjacent);
  link("big0", "big3", p.big_to_big_diagonal);
  link("big1", "big2", p.big_to_big_diagonal);
  // Die-to-case spreading.
  link("big0", "case", p.big_to_case);
  link("big1", "case", p.big_to_case);
  link("big2", "case", p.big_to_case);
  link("big3", "case", p.big_to_case);
  link("little", "case", p.little_to_case);
  link("gpu", "case", p.gpu_to_case);
  link("mem", "case", p.mem_to_case);
  // Lateral die coupling.
  link("big0", "little", p.big_to_little);
  link("big1", "little", p.big_to_little);
  link("big2", "little", p.big_to_little);
  link("big3", "little", p.big_to_little);
  link("gpu", "big2", p.gpu_to_big2);
  link("gpu", "big3", p.gpu_to_big3);
  link("gpu", "mem", p.gpu_to_mem);
  link("little", "gpu", p.little_to_gpu);
  // Case spreads into the board; the fan modulates board-to-ambient
  // convection.
  link("case", "board", p.case_to_board);
  link("board", "ambient", p.board_to_ambient_fan_off, /*fan_modulated=*/true);

  spec.core_nodes = {"big0", "big1", "big2", "big3"};
  spec.little_node = "little";
  spec.gpu_node = "gpu";
  spec.mem_node = "mem";
  spec.sensor_nodes = spec.core_nodes;
  return spec;
}

Floorplan make_default_floorplan(const FloorplanParams& p) {
  return build_floorplan(default_floorplan_spec(p));
}

}  // namespace dtpm::thermal
