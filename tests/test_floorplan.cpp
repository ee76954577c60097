#include "thermal/floorplan.hpp"

#include <gtest/gtest.h>

namespace dtpm::thermal {
namespace {

TEST(Floorplan, NodeCountAndNames) {
  Floorplan fp = make_default_floorplan();
  EXPECT_EQ(fp.network.node_count(), kFloorplanNodeCount);
  EXPECT_EQ(fp.network.index_of("big0"), node_index(FloorplanNode::kBig0));
  EXPECT_EQ(fp.network.index_of("little"),
            node_index(FloorplanNode::kLittleCluster));
  EXPECT_EQ(fp.network.index_of("board"), node_index(FloorplanNode::kBoard));
  EXPECT_EQ(fp.network.index_of("ambient"),
            node_index(FloorplanNode::kAmbient));
}

TEST(Floorplan, AmbientIsOnlyBoundary) {
  Floorplan fp = make_default_floorplan();
  for (std::size_t i = 0; i < fp.network.node_count(); ++i) {
    EXPECT_EQ(fp.network.node(i).is_boundary,
              i == node_index(FloorplanNode::kAmbient));
  }
}

TEST(Floorplan, InitialTemperatures) {
  FloorplanParams params;
  params.initial_temp_c = 47.0;
  params.board_initial_temp_c = 39.0;
  params.ambient_temp_c = 22.0;
  Floorplan fp = make_default_floorplan(params);
  EXPECT_EQ(fp.network.temperature_c(node_index(FloorplanNode::kBig0)), 47.0);
  EXPECT_EQ(fp.network.temperature_c(node_index(FloorplanNode::kBoard)), 39.0);
  EXPECT_EQ(fp.network.temperature_c(node_index(FloorplanNode::kAmbient)),
            22.0);
}

TEST(Floorplan, FanEdgeIsBoardToAmbient) {
  FloorplanParams params;
  Floorplan fp = make_default_floorplan(params);
  EXPECT_EQ(fp.network.edge_conductance(fp.fan_edge),
            params.board_to_ambient_fan_off);
  // Doubling the fan edge halves the board-to-ambient resistance and thus
  // lowers the steady-state temperature of a heated die node.
  std::vector<double> power(kFloorplanNodeCount, 0.0);
  power[node_index(FloorplanNode::kBig0)] = 2.0;
  const double hot_before =
      fp.network.steady_state(power)[node_index(FloorplanNode::kBig0)];
  fp.network.set_edge_conductance(fp.fan_edge,
                                  2.0 * params.board_to_ambient_fan_off);
  const double hot_after =
      fp.network.steady_state(power)[node_index(FloorplanNode::kBig0)];
  EXPECT_LT(hot_after, hot_before);
}

TEST(Floorplan, BigCoresAreHotspots) {
  // Heat one big core: it must be the hottest node at steady state, and its
  // grid neighbours warmer than the far little cluster.
  Floorplan fp = make_default_floorplan();
  std::vector<double> power(kFloorplanNodeCount, 0.0);
  power[node_index(FloorplanNode::kBig0)] = 1.5;
  const auto ss = fp.network.steady_state(power);
  const double hot = ss[node_index(FloorplanNode::kBig0)];
  for (std::size_t i = 0; i < kFloorplanNodeCount; ++i) {
    if (i == node_index(FloorplanNode::kBig0)) continue;
    EXPECT_LT(ss[i], hot) << "node " << i;
  }
  EXPECT_GT(ss[node_index(FloorplanNode::kBig1)],
            ss[node_index(FloorplanNode::kLittleCluster)]);
}

TEST(Floorplan, BigCoreNodesOrder) {
  const auto nodes = Floorplan::big_core_nodes();
  EXPECT_EQ(nodes[0], node_index(FloorplanNode::kBig0));
  EXPECT_EQ(nodes[3], node_index(FloorplanNode::kBig3));
}

TEST(Floorplan, TotalResistanceMatchesSeriesStages) {
  // With all dissipation in the die, steady board temperature is set purely
  // by the board-to-ambient stage: T_board = T_amb + P_total / G_ba.
  FloorplanParams params;
  Floorplan fp = make_default_floorplan(params);
  std::vector<double> power(kFloorplanNodeCount, 0.0);
  power[node_index(FloorplanNode::kBig0)] = 1.0;
  power[node_index(FloorplanNode::kGpu)] = 0.5;
  const auto ss = fp.network.steady_state(power);
  EXPECT_NEAR(ss[node_index(FloorplanNode::kBoard)],
              params.ambient_temp_c + 1.5 / params.board_to_ambient_fan_off,
              1e-9);
}

TEST(Floorplan, AssembleNodePowerMapsRailsToNodes) {
  const std::array<double, 4> big{1.0, 2.0, 3.0, 4.0};
  power::ResourceVector rails{};
  rails[power::resource_index(power::Resource::kBigCluster)] = 10.0;  // unused
  rails[power::resource_index(power::Resource::kLittleCluster)] = 0.5;
  rails[power::resource_index(power::Resource::kGpu)] = 1.5;
  rails[power::resource_index(power::Resource::kMem)] = 0.25;

  std::vector<double> node_power;
  make_default_floorplan().assemble_node_power_into(big, rails, node_power);
  ASSERT_EQ(node_power.size(), kFloorplanNodeCount);
  EXPECT_EQ(node_power[node_index(FloorplanNode::kBig0)], 1.0);
  EXPECT_EQ(node_power[node_index(FloorplanNode::kBig1)], 2.0);
  EXPECT_EQ(node_power[node_index(FloorplanNode::kBig2)], 3.0);
  EXPECT_EQ(node_power[node_index(FloorplanNode::kBig3)], 4.0);
  // Per-core powers already decompose the big rail; the rail total itself
  // must not be double-charged to any node.
  EXPECT_EQ(node_power[node_index(FloorplanNode::kLittleCluster)], 0.5);
  EXPECT_EQ(node_power[node_index(FloorplanNode::kGpu)], 1.5);
  EXPECT_EQ(node_power[node_index(FloorplanNode::kMem)], 0.25);
  // Passive nodes receive no direct heat injection.
  EXPECT_EQ(node_power[node_index(FloorplanNode::kCase)], 0.0);
  EXPECT_EQ(node_power[node_index(FloorplanNode::kBoard)], 0.0);
  EXPECT_EQ(node_power[node_index(FloorplanNode::kAmbient)], 0.0);
}

}  // namespace
}  // namespace dtpm::thermal
