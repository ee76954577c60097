#include "thermal/floorplan.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>

namespace dtpm::thermal {
namespace {

/// Index of the default floorplan's node `name`.
std::size_t node(const char* name) {
  static const Floorplan fp = make_default_floorplan();
  return fp.network.index_of(name);
}

/// Node count of the default floorplan.
std::size_t node_count() { return default_floorplan_spec().nodes.size(); }

TEST(Floorplan, NodeCountAndNames) {
  // default_floorplan_spec documents its node order; the network keeps it.
  const char* const names[] = {"big0", "big1", "big2",  "big3",  "little",
                               "gpu",  "mem",  "case",  "board", "ambient"};
  Floorplan fp = make_default_floorplan();
  ASSERT_EQ(fp.network.node_count(), std::size(names));
  for (std::size_t i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(fp.network.node(i).name, names[i]);
    EXPECT_EQ(fp.network.index_of(names[i]), i);
  }
}

TEST(Floorplan, AmbientIsOnlyBoundary) {
  Floorplan fp = make_default_floorplan();
  for (std::size_t i = 0; i < fp.network.node_count(); ++i) {
    EXPECT_EQ(fp.network.node(i).is_boundary, i == node("ambient"));
  }
}

TEST(Floorplan, InitialTemperatures) {
  FloorplanParams params;
  params.initial_temp_c = 47.0;
  params.board_initial_temp_c = 39.0;
  params.ambient_temp_c = 22.0;
  Floorplan fp = make_default_floorplan(params);
  EXPECT_EQ(fp.network.temperature_c(node("big0")), 47.0);
  EXPECT_EQ(fp.network.temperature_c(node("board")), 39.0);
  EXPECT_EQ(fp.network.temperature_c(node("ambient")), 22.0);
}

TEST(Floorplan, FanEdgeIsBoardToAmbient) {
  FloorplanParams params;
  Floorplan fp = make_default_floorplan(params);
  EXPECT_EQ(fp.network.edge_conductance(fp.fan_edge),
            params.board_to_ambient_fan_off);
  // Doubling the fan edge halves the board-to-ambient resistance and thus
  // lowers the steady-state temperature of a heated die node.
  std::vector<double> power(node_count(), 0.0);
  power[node("big0")] = 2.0;
  const double hot_before = fp.network.steady_state(power)[node("big0")];
  fp.network.set_edge_conductance(fp.fan_edge,
                                  2.0 * params.board_to_ambient_fan_off);
  const double hot_after = fp.network.steady_state(power)[node("big0")];
  EXPECT_LT(hot_after, hot_before);
}

TEST(Floorplan, BigCoresAreHotspots) {
  // Heat one big core: it must be the hottest node at steady state, and its
  // grid neighbours warmer than the far little cluster.
  Floorplan fp = make_default_floorplan();
  std::vector<double> power(node_count(), 0.0);
  power[node("big0")] = 1.5;
  const auto ss = fp.network.steady_state(power);
  const double hot = ss[node("big0")];
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (i == node("big0")) continue;
    EXPECT_LT(ss[i], hot) << "node " << i;
  }
  EXPECT_GT(ss[node("big1")], ss[node("little")]);
}

TEST(Floorplan, BigCoreNodesOrder) {
  const Floorplan::HeatNodes nodes = make_default_floorplan().heat_nodes();
  EXPECT_EQ(nodes[0], node("big0"));
  EXPECT_EQ(nodes[3], node("big3"));
  EXPECT_EQ(nodes[4], node("little"));
  EXPECT_EQ(nodes[5], node("gpu"));
  EXPECT_EQ(nodes[6], node("mem"));
}

/// The plant writes one heat source per node, so two sources on one node
/// would silently lose the earlier one's heat: the spec is rejected instead,
/// naming both roles.
TEST(Floorplan, HeatSourcesSharingANodeAreRejected) {
  auto expect_rejected = [](const FloorplanSpec& spec, const std::string& a,
                            const std::string& b) {
    try {
      validate_floorplan_spec(spec);
      ADD_FAILURE() << "expected " << a << " and " << b << " to be rejected";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(a), std::string::npos) << what;
      EXPECT_NE(what.find(b), std::string::npos) << what;
    }
  };
  FloorplanSpec gpu_on_mem = default_floorplan_spec();
  gpu_on_mem.gpu_node = gpu_on_mem.mem_node;
  expect_rejected(gpu_on_mem, "gpu_node", "mem_node");
  EXPECT_THROW(build_floorplan(gpu_on_mem), std::invalid_argument);

  FloorplanSpec repeated_core = default_floorplan_spec();
  repeated_core.core_nodes[2] = repeated_core.core_nodes[0];
  expect_rejected(repeated_core, "core_nodes[0]", "core_nodes[2]");

  // Sensor sites are not heat sources: the default spec puts them on the
  // core nodes and passes.
  EXPECT_NO_THROW(validate_floorplan_spec(default_floorplan_spec()));
}

TEST(Floorplan, TotalResistanceMatchesSeriesStages) {
  // With all dissipation in the die, steady board temperature is set purely
  // by the board-to-ambient stage: T_board = T_amb + P_total / G_ba.
  FloorplanParams params;
  Floorplan fp = make_default_floorplan(params);
  std::vector<double> power(node_count(), 0.0);
  power[node("big0")] = 1.0;
  power[node("gpu")] = 0.5;
  const auto ss = fp.network.steady_state(power);
  EXPECT_NEAR(ss[node("board")],
              params.ambient_temp_c + 1.5 / params.board_to_ambient_fan_off,
              1e-9);
}

TEST(Floorplan, WriteHeatMapsRailsToNodes) {
  const std::array<double, 4> big{1.0, 2.0, 3.0, 4.0};
  power::ResourceVector rails{};
  rails[power::resource_index(power::Resource::kBigCluster)] = 10.0;  // unused
  rails[power::resource_index(power::Resource::kLittleCluster)] = 0.5;
  rails[power::resource_index(power::Resource::kGpu)] = 1.5;
  rails[power::resource_index(power::Resource::kMem)] = 0.25;

  std::vector<double> node_power(node_count(), 0.0);
  Floorplan::write_heat(make_default_floorplan().heat_nodes(), big, rails,
                        node_power);
  ASSERT_EQ(node_power.size(), node_count());
  EXPECT_EQ(node_power[node("big0")], 1.0);
  EXPECT_EQ(node_power[node("big1")], 2.0);
  EXPECT_EQ(node_power[node("big2")], 3.0);
  EXPECT_EQ(node_power[node("big3")], 4.0);
  // Per-core powers already decompose the big rail; the rail total itself
  // must not be double-charged to any node.
  EXPECT_EQ(node_power[node("little")], 0.5);
  EXPECT_EQ(node_power[node("gpu")], 1.5);
  EXPECT_EQ(node_power[node("mem")], 0.25);
  // Passive nodes receive no direct heat injection.
  EXPECT_EQ(node_power[node("case")], 0.0);
  EXPECT_EQ(node_power[node("board")], 0.0);
  EXPECT_EQ(node_power[node("ambient")], 0.0);
}

}  // namespace
}  // namespace dtpm::thermal
