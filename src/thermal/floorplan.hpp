// Thermal floorplans: the node/edge topology that the RcNetwork plant
// integrates. Two layers live here:
//
//   * FloorplanSpec -- a fully data-driven description (named nodes,
//     conductance edges, a fan-modulated edge, and the role mapping that
//     tells the plant which nodes are the per-core hotspots / cluster heat
//     sinks / sensor sites). This is what sim::PlatformDescriptor carries
//     and what platform JSON files serialize.
//   * The Exynos-5410-like default floorplan of the Odroid-XU+E (§6.1.2),
//     expressed as a FloorplanSpec generated from FloorplanParams so the
//     historical parameter struct keeps working unchanged.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "power/resource.hpp"
#include "thermal/rc_network.hpp"

namespace dtpm::thermal {

/// Tunable physical parameters of the default floorplan. Values are
/// calibrated so the plant reproduces the thesis figures (idle ~40-45 C,
/// no-fan heavy load >80 C, fan hysteresis band 57-70 C); see DESIGN.md §6.
struct FloorplanParams {
  // Heat capacities (J/K).
  // Two-stage package: die nodes couple into the case (fast stage, ~13 s
  // rise, visible at benchmark start in the thesis trace figures) which
  // couples into the board (slow stage, ~70 s) and on to ambient through
  // the fan-dependent convection edge. The slow board pole is what makes
  // the fan-less traces keep rising through a whole benchmark run
  // (Figs. 1.1, 6.4) and what limits long-horizon prediction accuracy
  // (Fig. 4.10), since the identified 4-state model cannot represent it
  // exactly.
  double big_core_capacitance = 0.08;
  double little_cluster_capacitance = 0.15;
  double gpu_capacitance = 0.20;
  double mem_capacitance = 0.25;
  double case_capacitance = 0.70;
  double board_capacitance = 9.0;

  // Conductances (W/K).
  double big_to_big_adjacent = 0.8;    ///< grid neighbours (0-1, 2-3, 0-2, 1-3)
  double big_to_big_diagonal = 0.4;    ///< diagonals (0-3, 1-2)
  double big_to_case = 0.35;
  double big_to_little = 0.05;
  double little_to_case = 0.25;
  double gpu_to_case = 0.30;
  double gpu_to_big2 = 0.06;
  double gpu_to_big3 = 0.06;
  double gpu_to_mem = 0.05;
  double mem_to_case = 0.30;
  double little_to_gpu = 0.04;
  double case_to_board = 0.125;
  /// Board-to-ambient convection with the fan off; the fan model raises this.
  double board_to_ambient_fan_off = 0.125;

  double ambient_temp_c = 25.0;
  /// Warm start: a phone/board that has been running Android for a while.
  double initial_temp_c = 45.0;
  /// The heavy board mass starts cooler than the die.
  double board_initial_temp_c = 38.0;
};

// --- Data-driven floorplan description ---------------------------------------

/// One conductance edge, referencing nodes by name.
struct FloorplanEdgeSpec {
  std::string node_a;
  std::string node_b;
  double conductance_w_per_k = 0.0;
  /// The fan modulates this edge's conductance (at most one per floorplan;
  /// none on a fanless platform).
  bool fan_modulated = false;
};

/// A complete floorplan as data: topology plus the role mapping through
/// which the SoC model injects heat and the sensor bank observes it. This is
/// the serializable source of truth a sim::PlatformDescriptor carries.
struct FloorplanSpec {
  std::vector<ThermalNode> nodes;
  std::vector<FloorplanEdgeSpec> edges;

  /// Per-core hotspot nodes, in core order (heat injection of the big
  /// cores' individual power draws).
  std::vector<std::string> core_nodes;
  /// Cluster-level heat sinks of the remaining metered rails.
  std::string little_node;
  std::string gpu_node;
  std::string mem_node;
  /// Temperature-sensor placement, in sensor order.
  std::vector<std::string> sensor_nodes;

  /// The single boundary node's fixed temperature; throws std::logic_error
  /// when the spec has no boundary node.
  double ambient_temp_c() const;

  /// True when some edge is fan-modulated.
  bool has_fan_edge() const;

  /// The heat-source role members as (member name, node name) pairs in the
  /// SoC's heat-source order: core_nodes[0..], little_node, gpu_node,
  /// mem_node.
  std::vector<std::pair<std::string, std::string>> heat_source_roles() const;
};

bool operator==(const ThermalNode& a, const ThermalNode& b);
bool operator==(const FloorplanEdgeSpec& a, const FloorplanEdgeSpec& b);
/// Memberwise equality -- the sharing key for compiled floorplan templates
/// (sim::RunPlan) now that topology itself is data.
bool operator==(const FloorplanSpec& a, const FloorplanSpec& b);
inline bool operator!=(const FloorplanSpec& a, const FloorplanSpec& b) {
  return !(a == b);
}

/// A constructed floorplan: the compiled network, the fan-modulated edge
/// (kNoFanEdge on fanless platforms), and the role indices resolved from the
/// spec's node names.
struct Floorplan {
  /// Sentinel fan_edge value of a floorplan without a fan-modulated edge.
  static constexpr std::size_t kNoFanEdge = static_cast<std::size_t>(-1);

  RcNetwork network;
  std::size_t fan_edge = kNoFanEdge;
  FloorplanSpec spec;

  /// Role indices into the network, resolved once at construction.
  std::vector<std::size_t> core_node_index;
  std::size_t little_node_index = 0;
  std::size_t gpu_node_index = 0;
  std::size_t mem_node_index = 0;
  std::size_t ambient_node_index = 0;
  std::vector<std::size_t> sensor_node_index;

  bool has_fan_edge() const { return fan_edge != kNoFanEdge; }

  /// The SoC outputs that heat a node: the four big cores, then the little,
  /// GPU and memory rails.
  static constexpr std::size_t kHeatSourceCount = 7;
  using HeatNodes = std::array<std::size_t, kHeatSourceCount>;

  /// The node each heat source is written to, in that role order: each big
  /// core heats its own core node and the little/GPU/memory rails heat their
  /// cluster nodes. @throws std::logic_error unless the floorplan has exactly
  /// four core nodes.
  HeatNodes heat_nodes() const;

  /// Writes the SoC's heat sources into their `nodes` entries of
  /// `node_power` and leaves every other entry as it is.
  static void write_heat(const HeatNodes& nodes,
                         const std::array<double, 4>& big_core_power_w,
                         const power::ResourceVector& rail_power_w,
                         std::vector<double>& node_power) {
    const std::array<double, kHeatSourceCount> source{
        big_core_power_w[0],
        big_core_power_w[1],
        big_core_power_w[2],
        big_core_power_w[3],
        rail_power_w[power::resource_index(power::Resource::kLittleCluster)],
        rail_power_w[power::resource_index(power::Resource::kGpu)],
        rail_power_w[power::resource_index(power::Resource::kMem)]};
    for (std::size_t k = 0; k < kHeatSourceCount; ++k) {
      node_power[nodes[k]] = source[k];
    }
  }
};

/// The default Exynos-5410-like topology as a data-driven spec, nodes in
/// the order big0..big3, little, gpu, mem, case, board, ambient. The DTPM
/// stack's reduced model only ever sees big0..big3; little/gpu/mem appear
/// as power inputs, and case/board/ambient are entirely hidden (the
/// unmodeled slow pole that makes identification realistic).
FloorplanSpec default_floorplan_spec(const FloorplanParams& params = {});

/// Builds a floorplan from its data description. Validates the spec first:
/// duplicate/empty node names, edges or role members referencing unknown
/// nodes, more than one fan-modulated edge, boundary role nodes, two heat
/// sources (core_nodes, little_node, gpu_node, mem_node) on one node, or not
/// exactly one boundary node all throw std::invalid_argument.
Floorplan build_floorplan(const FloorplanSpec& spec);

/// Validation half of build_floorplan (everything except what RcNetwork
/// itself checks); throws std::invalid_argument with the offending member.
void validate_floorplan_spec(const FloorplanSpec& spec);

/// Builds the default Exynos-5410-like floorplan:
/// build_floorplan(default_floorplan_spec(params)).
Floorplan make_default_floorplan(const FloorplanParams& params = {});

}  // namespace dtpm::thermal
