// RcNetwork: the analytic single-RC and chain responses, dt-independent
// stability of the internal subdivision, and topology and argument
// validation. Bit-identity with the edge-list reference integrator lives in
// test_compiled_rc_model.cpp.
#include "thermal/rc_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace dtpm::thermal {
namespace {

// Two-node fixture: one free node coupled to a fixed-temperature ambient.
RcNetwork make_two_node(double capacitance = 2.0, double conductance = 0.5,
                        double ambient = 25.0, double initial = 25.0) {
  std::vector<ThermalNode> nodes(2);
  nodes[0] = {"die", capacitance, initial, false};
  nodes[1] = {"ambient", 1.0, ambient, true};
  std::vector<ThermalEdge> edges{{0, 1, conductance}};
  return RcNetwork(std::move(nodes), std::move(edges));
}

TEST(RcNetwork, ValidatesTopology) {
  std::vector<ThermalNode> nodes(2);
  nodes[0] = {"a", 1.0, 25.0, false};
  nodes[1] = {"b", 1.0, 25.0, false};
  EXPECT_THROW(RcNetwork({}, {}), std::invalid_argument);
  EXPECT_THROW(RcNetwork(nodes, {{0, 2, 0.5}}), std::invalid_argument);
  EXPECT_THROW(RcNetwork(nodes, {{0, 0, 0.5}}), std::invalid_argument);
  EXPECT_THROW(RcNetwork(nodes, {{0, 1, -1.0}}), std::invalid_argument);
  nodes[0].capacitance_j_per_k = 0.0;
  EXPECT_THROW(RcNetwork(nodes, {{0, 1, 0.5}}), std::invalid_argument);
}

TEST(RcNetwork, SteadyStateMatchesAnalytic) {
  // T_ss = T_amb + P / G.
  RcNetwork net = make_two_node(2.0, 0.5, 25.0);
  const auto ss = net.steady_state({3.0, 0.0});
  EXPECT_NEAR(ss[0], 25.0 + 3.0 / 0.5, 1e-10);
  EXPECT_EQ(ss[1], 25.0);
}

TEST(RcNetwork, StepConvergesToSteadyState) {
  RcNetwork net = make_two_node(2.0, 0.5, 25.0);
  for (int i = 0; i < 2000; ++i) net.step(0.1, {3.0, 0.0});
  EXPECT_NEAR(net.temperature_c(0), 31.0, 1e-6);
}

TEST(RcNetwork, FirstOrderResponseMatchesAnalytic) {
  // Single RC: T(t) = T_amb + P*R*(1 - exp(-t/(RC))).
  const double c = 2.0, g = 0.5, p = 3.0;
  RcNetwork net = make_two_node(c, g, 25.0, 25.0);
  const double t_total = 3.0;
  for (int i = 0; i < 300; ++i) net.step(0.01, {p, 0.0});
  const double tau = c / g;
  const double expected = 25.0 + p / g * (1.0 - std::exp(-t_total / tau));
  EXPECT_NEAR(net.temperature_c(0), expected, 1e-4);
}

TEST(RcNetwork, BoundaryNodeStaysPinned) {
  RcNetwork net = make_two_node();
  net.step(10.0, {5.0, 100.0});  // power injected at boundary is ignored
  EXPECT_EQ(net.temperature_c(1), 25.0);
}

TEST(RcNetwork, SetBoundaryTemperatureRepins) {
  RcNetwork net = make_two_node();
  net.set_boundary_temperature_c(1, 80.0);
  for (int i = 0; i < 5000; ++i) net.step(0.1, {0.0, 0.0});
  EXPECT_NEAR(net.temperature_c(0), 80.0, 1e-6);
  EXPECT_THROW(net.set_boundary_temperature_c(0, 50.0), std::invalid_argument);
}

TEST(RcNetwork, EdgeConductanceUpdateChangesSteadyState) {
  RcNetwork net = make_two_node(2.0, 0.5);
  net.set_edge_conductance(0, 1.0);
  EXPECT_EQ(net.edge_conductance(0), 1.0);
  const auto ss = net.steady_state({3.0, 0.0});
  EXPECT_NEAR(ss[0], 25.0 + 3.0, 1e-10);
  EXPECT_THROW(net.set_edge_conductance(0, 0.0), std::invalid_argument);
}

TEST(RcNetwork, ThreeNodeChainSteadyState) {
  // die -G1- case -G2- ambient: T_die = T_amb + P*(1/G1 + 1/G2).
  std::vector<ThermalNode> nodes(3);
  nodes[0] = {"die", 0.1, 25.0, false};
  nodes[1] = {"case", 1.0, 25.0, false};
  nodes[2] = {"ambient", 1.0, 25.0, true};
  RcNetwork net(nodes, {{0, 1, 0.25}, {1, 2, 0.125}});
  const auto ss = net.steady_state({2.0, 0.0, 0.0});
  EXPECT_NEAR(ss[0], 25.0 + 2.0 * (4.0 + 8.0), 1e-9);
  EXPECT_NEAR(ss[1], 25.0 + 2.0 * 8.0, 1e-9);
}

TEST(RcNetwork, HeatFlowsFromHotToCold) {
  std::vector<ThermalNode> nodes(2);
  nodes[0] = {"hot", 1.0, 80.0, false};
  nodes[1] = {"cold", 1.0, 20.0, false};
  RcNetwork net(nodes, {{0, 1, 0.5}});
  net.step(0.1, {0.0, 0.0});
  EXPECT_LT(net.temperature_c(0), 80.0);
  EXPECT_GT(net.temperature_c(1), 20.0);
  // Isolated pair conserves energy: equal capacitances -> symmetric drift.
  EXPECT_NEAR(net.temperature_c(0) + net.temperature_c(1), 100.0, 1e-9);
}

TEST(RcNetwork, StepValidatesArguments) {
  RcNetwork net = make_two_node();
  EXPECT_THROW(net.step(0.0, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(net.step(0.1, {0.0}), std::invalid_argument);
  EXPECT_THROW(net.step(0.1, {1.0, 0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(net.steady_state({0.0}), std::invalid_argument);
  EXPECT_NO_THROW(net.step(0.1, {1.0, 0.0}));
}

// Stability sweep: large outer steps must subdivide internally and converge
// to the same steady state regardless of dt.
class RcStepSweep : public ::testing::TestWithParam<double> {};

TEST_P(RcStepSweep, LargeStepsRemainStable) {
  const double dt = GetParam();
  // Stiff node: tiny capacitance, strong coupling.
  std::vector<ThermalNode> nodes(2);
  nodes[0] = {"die", 0.05, 25.0, false};
  nodes[1] = {"ambient", 1.0, 25.0, true};
  RcNetwork net(nodes, {{0, 1, 2.0}});
  for (int i = 0; i < int(std::ceil(20.0 / dt)); ++i) net.step(dt, {4.0, 0.0});
  EXPECT_NEAR(net.temperature_c(0), 27.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(StepSizes, RcStepSweep,
                         ::testing::Values(0.001, 0.01, 0.1, 0.5, 1.0));

}  // namespace
}  // namespace dtpm::thermal
