// Correctness of the LTI propagator (thermal/lti_propagator.hpp) against
// the reference RK4 integrator: spectral stability of the compiled step map
// for every registry platform and fan state, bounded long-soak drift, the
// matvec step after a fan transition, the packed register-blocked step
// against a row-by-row dot product, and Plants that share a RunPlan's
// precompiled matrices.
#include "thermal/lti_propagator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "sim/calibration.hpp"
#include "sim/config.hpp"
#include "sim/plant.hpp"
#include "sim/platform_registry.hpp"
#include "sim/run_plan.hpp"
#include "thermal/fan.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_network.hpp"
#include "util/matrix.hpp"

namespace dtpm::sim {
// Plant's test-only friend: the propagator's step and compile counters.
struct PlantTestPeer {
  static const thermal::PropagatorRcModel& propagator(const Plant& plant) {
    return *plant.propagator_;
  }
};
}  // namespace dtpm::sim

namespace dtpm::thermal {
namespace {

std::vector<double> sinusoid_power(std::size_t nodes, int k) {
  std::vector<double> power(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    power[i] = 1.0 + 0.5 * std::sin(0.01 * k + double(i));
  }
  return power;
}

/// Random connected RC network with at least one boundary node: spanning
/// tree plus extra chords, log-uniform C and G so stiffness ratios vary.
RcNetwork make_random_network(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> node_count_dist(3, 12);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int n = node_count_dist(rng);
  std::vector<ThermalNode> nodes(n);
  for (int i = 0; i < n; ++i) {
    nodes[i].name = "n" + std::to_string(i);
    nodes[i].capacitance_j_per_k = std::pow(10.0, -2.0 + 3.0 * unit(rng));
    nodes[i].initial_temp_c = 25.0 + 40.0 * unit(rng);
    nodes[i].is_boundary = false;
  }
  nodes[n - 1].is_boundary = true;  // ambient-like boundary
  std::vector<ThermalEdge> edges;
  for (int i = 1; i < n; ++i) {
    std::uniform_int_distribution<int> parent(0, i - 1);
    edges.push_back({std::size_t(parent(rng)), std::size_t(i),
                     std::pow(10.0, -1.0 + 2.0 * unit(rng))});
  }
  for (int extra = 0; extra < n / 2; ++extra) {
    std::uniform_int_distribution<int> pick(0, n - 1);
    const int a = pick(rng);
    const int b = pick(rng);
    if (a == b) continue;
    edges.push_back({std::size_t(a), std::size_t(b),
                     std::pow(10.0, -1.0 + 2.0 * unit(rng))});
  }
  return RcNetwork(std::move(nodes), std::move(edges));
}

/// Connected RC network with exactly `free_count` free nodes and one
/// boundary node: spanning tree plus chords, log-uniform C and G.
RcNetwork make_network_with_free_nodes(std::mt19937_64& rng,
                                       std::size_t free_count) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t n = free_count + 1;
  std::vector<ThermalNode> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].name = "n" + std::to_string(i);
    nodes[i].capacitance_j_per_k = std::pow(10.0, -2.0 + 3.0 * unit(rng));
    nodes[i].initial_temp_c = 25.0 + 40.0 * unit(rng);
    nodes[i].is_boundary = i + 1 == n;
  }
  std::vector<ThermalEdge> edges;
  for (std::size_t i = 1; i < n; ++i) {
    std::uniform_int_distribution<std::size_t> parent(0, i - 1);
    edges.push_back({parent(rng), i, std::pow(10.0, -1.0 + 2.0 * unit(rng))});
  }
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  for (std::size_t extra = 0; extra < n; ++extra) {
    const std::size_t a = pick(rng);
    const std::size_t b = pick(rng);
    if (a != b) {
      edges.push_back({a, b, std::pow(10.0, -1.0 + 2.0 * unit(rng))});
    }
  }
  return RcNetwork(std::move(nodes), std::move(edges));
}

std::uint64_t bits(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

/// The oracle for the packed step: the row-by-row dot product it replaces.
/// Each free row starts from +0.0 and adds its Phi terms, then its Gamma
/// terms, left to right.
std::vector<double> row_by_row_step(const PropagatorMatrices& m,
                                    const std::vector<double>& temps,
                                    const std::vector<double>& power) {
  const std::size_t n = m.free_count;
  std::vector<double> tf(n), z(n);
  for (std::size_t i = 0; i < n; ++i) {
    tf[i] = temps[m.free_nodes[i]];
    z[i] = power[m.free_nodes[i]];
  }
  for (const PropagatorMatrices::BoundaryTerm& bt : m.boundary_terms) {
    z[bt.free_slot] += bt.g * temps[bt.boundary_node];
  }
  std::vector<double> out = temps;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += m.phi(i, j) * tf[j];
    for (std::size_t j = 0; j < n; ++j) acc += m.gamma(i, j) * z[j];
    out[m.free_nodes[i]] = acc;
  }
  return out;
}

/// Steps `network` through the propagator with random power and checks every
/// matvec step, through step() and step_resolved(), against row_by_row_step
/// bit for bit.
void expect_packed_step_matches_oracle(RcNetwork& network,
                                       std::mt19937_64& rng) {
  constexpr double kDt = 0.01;
  std::uniform_real_distribution<double> watts(0.0, 3.0);
  std::vector<double> power(network.node_count());
  PropagatorRcModel engine;
  for (int k = 0; k < 64; ++k) {
    for (double& p : power) p = watts(rng);
    const PropagatorMatrices& m = engine.matrices_for(network, kDt);
    const std::vector<double> expected =
        row_by_row_step(m, network.temperatures_c(), power);
    // Alternate the checked step() and the resolved step sim::Plant runs.
    if (k % 2 == 0) {
      engine.step(network, kDt, power);
    } else {
      engine.step_resolved(m, network, power);
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(bits(expected[i]), bits(network.temperature_c(i)))
          << "node " << i << " step " << k;
    }
  }
  EXPECT_EQ(engine.propagator_steps(), 64u);
  EXPECT_EQ(engine.compiles(), 1u);
}

util::Matrix phi_as_matrix(const PropagatorMatrices& m) {
  util::Matrix phi(m.free_count, m.free_count);
  for (std::size_t i = 0; i < m.free_count; ++i) {
    for (std::size_t j = 0; j < m.free_count; ++j) {
      phi(i, j) = m.phi(i, j);
    }
  }
  return phi;
}

// Every registry platform, every fan state: the one-step transition matrix
// must be a strict contraction (all eigenvalues inside the unit circle) --
// the discrete-time stability condition of the power-temperature analysis
// literature.
TEST(PropagatorSpectral, RegistryPlatformsAllFanStatesInsideUnitCircle) {
  const auto& registry = sim::PlatformRegistry::instance();
  const FanSpeed speeds[] = {FanSpeed::kOff, FanSpeed::kLow, FanSpeed::kHalf,
                             FanSpeed::kFull};
  for (const std::string& name : registry.names()) {
    const sim::PlatformPtr platform = registry.get(name);
    for (FanSpeed speed : speeds) {
      Floorplan fp = build_floorplan(platform->floorplan);
      if (fp.has_fan_edge()) {
        fp.network.set_edge_conductance(
            fp.fan_edge, Fan(platform->fan).conductance_w_per_k(speed));
      }
      PropagatorRcModel engine;
      const PropagatorMatrices& m = engine.matrices_for(fp.network, 0.01);
      ASSERT_GT(m.free_count, 0u) << name;
      const double radius = phi_as_matrix(m).spectral_radius();
      EXPECT_GT(radius, 0.0) << name << " " << to_string(speed);
      EXPECT_LT(radius, 1.0) << name << " " << to_string(speed);
    }
  }
}

// Randomized topologies: the RK4-map propagator is the RK4 substep loop in
// exact arithmetic, so over a long soak against the reference integrator the
// divergence stays at floating-point rounding -- orders of magnitude inside
// the 1e-9 C/step acceptance bound.
TEST(PropagatorDrift, TenThousandStepSoakWithinBoundPerStep) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 5; ++trial) {
    RcNetwork reference = make_random_network(rng);
    RcNetwork stepped = reference;  // same topology and initial state
    PropagatorRcModel engine;
    constexpr int kSteps = 10000;
    constexpr double kPerStepBound = 1e-9;
    double max_err = 0.0;
    for (int k = 0; k < kSteps; ++k) {
      const std::vector<double> power =
          sinusoid_power(reference.node_count(), k);
      reference.step(0.01, power);
      engine.step(stepped, 0.01, power);
      for (std::size_t i = 0; i < reference.node_count(); ++i) {
        max_err = std::max(max_err, std::abs(reference.temperature_c(i) -
                                             stepped.temperature_c(i)));
      }
      ASSERT_LE(max_err, kPerStepBound * (k + 1)) << "trial " << trial;
    }
    // The accumulated drift should in fact be far below the linear bound.
    EXPECT_LE(max_err, 1e-6) << "trial " << trial;
    EXPECT_EQ(engine.propagator_steps(), std::uint64_t(kSteps));
  }
}

// Every registry floorplan through the propagator over a long soak, at both
// plant substeps in use -- runs' and calibration's -- from the as-built
// state behind the golden traces and, as calibration's furnace runs it, with
// the ambient boundary and the start state pinned at each furnace setpoint.
TEST(PropagatorDrift, RegistryFloorplanSoak) {
  const auto& registry = sim::PlatformRegistry::instance();
  const sim::CalibrationOptions calibration;
  const double substeps[] = {sim::ExperimentConfig().plant_substep_s,
                             calibration.plant_substep_s};
  ASSERT_NE(substeps[0], substeps[1]);
  // No setpoint: the as-built temperatures and ambient.
  std::vector<std::optional<double>> setpoints{std::nullopt};
  setpoints.insert(setpoints.end(), calibration.furnace_temps_c.begin(),
                   calibration.furnace_temps_c.end());
  for (const std::string& name : registry.names()) {
    for (double dt : substeps) {
      for (const std::optional<double>& setpoint : setpoints) {
        Floorplan reference = build_floorplan(registry.get(name)->floorplan);
        if (setpoint.has_value()) {
          reference.network.set_boundary_temperature_c(
              reference.ambient_node_index, *setpoint);
          reference.network.set_all_temperatures_c(*setpoint);
        }
        Floorplan stepped = reference;
        const std::size_t nodes = reference.network.node_count();
        PropagatorRcModel engine;
        double max_err = 0.0;
        for (int k = 0; k < 10000; ++k) {
          const std::vector<double> power = sinusoid_power(nodes, k);
          reference.network.step(dt, power);
          engine.step(stepped.network, dt, power);
          for (std::size_t i = 0; i < nodes; ++i) {
            max_err = std::max(max_err,
                               std::abs(reference.network.temperature_c(i) -
                                        stepped.network.temperature_c(i)));
          }
        }
        EXPECT_LE(max_err, 1e-8)
            << name << ", dt " << dt << " s, setpoint "
            << (setpoint.has_value() ? std::to_string(*setpoint) : "none");
        EXPECT_EQ(engine.propagator_steps(), 10000u) << name;
      }
    }
  }
}

// The step after a conductance change -- a fan transition -- is already a
// matvec on the new state's matrices: bit-identical to the row-by-row dot on
// them and within rounding of the RK4 reference from the same state.
// Returning to a state the model has seen compiles nothing.
TEST(PropagatorConductanceChange, StepAfterFanTransitionIsNewStateMatvec) {
  constexpr double kDt = 0.01;
  Floorplan reference = make_default_floorplan();
  Floorplan stepped = make_default_floorplan();
  const Fan fan;
  PropagatorRcModel engine;
  ASSERT_TRUE(reference.has_fan_edge());

  const std::size_t node_count = stepped.network.node_count();
  const std::vector<double> power(node_count, 2.0);
  engine.step(stepped.network, kDt, power);
  engine.step(stepped.network, kDt, power);
  EXPECT_EQ(engine.compiles(), 1u);

  // Fan transition. The reference starts from the propagator's state, so
  // the comparison isolates this one step.
  reference.network = stepped.network;
  const double g_full = fan.conductance_w_per_k(FanSpeed::kFull);
  reference.network.set_edge_conductance(reference.fan_edge, g_full);
  stepped.network.set_edge_conductance(stepped.fan_edge, g_full);
  PropagatorTable oracle_table;
  const std::vector<double> expected =
      row_by_row_step(oracle_table.add(stepped.network, kDt),
                      stepped.network.temperatures_c(), power);
  reference.network.step(kDt, power);
  engine.step(stepped.network, kDt, power);
  EXPECT_EQ(engine.compiles(), 2u);
  EXPECT_EQ(engine.propagator_steps(), 3u);
  for (std::size_t i = 0; i < node_count; ++i) {
    EXPECT_EQ(bits(expected[i]), bits(stepped.network.temperature_c(i)))
        << "node " << i;
    EXPECT_NEAR(reference.network.temperature_c(i),
                stepped.network.temperature_c(i), 1e-8)
        << "node " << i;
  }

  // Back to the fan-off state the model compiled first: nothing compiles.
  const double g_off = fan.conductance_w_per_k(FanSpeed::kOff);
  stepped.network.set_edge_conductance(stepped.fan_edge, g_off);
  engine.step(stepped.network, kDt, power);
  EXPECT_EQ(engine.compiles(), 2u);
  EXPECT_EQ(engine.propagator_steps(), 4u);
}

// A network destroyed and rebuilt in place with other conductances is a new
// conductance state, although it lives at the old network's address: the
// model reaching it compiles its matrices and steps exactly like a fresh
// model does.
TEST(PropagatorConductanceChange, NetworkRebuiltInPlaceStepsLikeFreshModel) {
  constexpr double kDt = 0.1;
  const auto two_node = [](double g) {
    return RcNetwork({{"die", 2.0, 45.0, false}, {"amb", 1.0, 25.0, true}},
                     {{0, 1, g}});
  };
  const std::vector<double> power{3.0, 0.0};
  std::optional<RcNetwork> net;
  net.emplace(two_node(0.5));
  PropagatorRcModel reused;
  reused.step(*net, kDt, power);
  net.reset();
  net.emplace(two_node(2.0));
  reused.step(*net, kDt, power);

  RcNetwork expected = two_node(2.0);
  PropagatorRcModel fresh;
  fresh.step(expected, kDt, power);
  EXPECT_EQ(reused.compiles(), 2u);
  EXPECT_EQ(bits(net->temperature_c(0)), bits(expected.temperature_c(0)));
}

// The packed [Phi | Gamma] step is bit-identical to the row-by-row dot on
// every registry floorplan in every fan state (n = 9: two panels + a tail).
TEST(PropagatorPacked, RegistryFloorplansEveryFanStateMatchRowByRowDot) {
  const auto& registry = sim::PlatformRegistry::instance();
  std::mt19937_64 rng(20261017);
  for (const std::string& name : registry.names()) {
    const sim::PlatformPtr platform = registry.get(name);
    for (FanSpeed speed : {FanSpeed::kOff, FanSpeed::kLow, FanSpeed::kHalf,
                           FanSpeed::kFull}) {
      SCOPED_TRACE(name + " " + to_string(speed));
      Floorplan fp = build_floorplan(platform->floorplan);
      if (fp.has_fan_edge()) {
        fp.network.set_edge_conductance(
            fp.fan_edge, Fan(platform->fan).conductance_w_per_k(speed));
      }
      expect_packed_step_matches_oracle(fp.network, rng);
    }
  }
}

// Generated networks with 1-13 free nodes: tail rows only (1-3), whole
// panels (4, 8, 12) and panels plus a tail (everything else).
TEST(PropagatorPacked, GeneratedNetworksOneToThirteenFreeNodes) {
  std::mt19937_64 rng(7);
  for (std::size_t free_count = 1; free_count <= 13; ++free_count) {
    SCOPED_TRACE("free nodes " + std::to_string(free_count));
    RcNetwork network = make_network_with_free_nodes(rng, free_count);
    expect_packed_step_matches_oracle(network, rng);
  }
}

// A Plant built from a RunPlan that precompiled its structure's matrices
// compiles nothing itself, yet takes the same matvec steps and lands on the
// same bits as a Plant that compiles its own.
TEST(PropagatorPlan, PlantOnPrecompiledPlanCompilesNothing) {
  const auto& registry = sim::PlatformRegistry::instance();
  for (const std::string& name : registry.names()) {
    SCOPED_TRACE(name);
    sim::ExperimentConfig config;
    sim::set_platform(config, name);
    config.engine = sim::Engine::kPropagator;
    const sim::RunPlan plan(config);
    const sim::PlantTemplate* shared_template =
        plan.template_for(*config.platform);
    ASSERT_NE(shared_template, nullptr);
    ASSERT_NE(shared_template->propagators, nullptr);
    EXPECT_GT(shared_template->propagators->size(), 0u);

    util::Rng root_shared(3), root_own(3);
    sim::Plant shared(*config.platform, root_shared, shared_template,
                      sim::Engine::kPropagator);
    sim::Plant own(*config.platform, root_own, nullptr,
                   sim::Engine::kPropagator);
    workload::Demand demand;
    demand.threads.push_back(workload::ThreadDemand{});
    demand.threads.back().cpu_cycles_per_unit = 1e6;
    const int substeps = sim::plant_substeps(config);
    const double sub_dt = config.control_interval_s / substeps;
    const FanSpeed cycle[] = {FanSpeed::kOff, FanSpeed::kFull, FanSpeed::kLow,
                              FanSpeed::kHalf, FanSpeed::kOff};
    for (int interval = 0; interval < 25; ++interval) {
      shared.set_fan(cycle[interval / 5]);
      own.set_fan(cycle[interval / 5]);
      shared.advance(demand, {}, nullptr, substeps, sub_dt);
      own.advance(demand, {}, nullptr, substeps, sub_dt);
      const std::vector<double>& a = shared.true_temps_c();
      const std::vector<double>& b = own.true_temps_c();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(bits(a[i]), bits(b[i])) << "node " << i << " interval "
                                          << interval;
      }
    }
    const thermal::PropagatorRcModel& shared_model =
        sim::PlantTestPeer::propagator(shared);
    const thermal::PropagatorRcModel& own_model =
        sim::PlantTestPeer::propagator(own);
    // Every substep is a propagator step. The Plant without a plan compiles
    // once per distinct fan state (off, full, low, half; the second "off"
    // finds its entry; a fanless platform has one state).
    EXPECT_EQ(shared_model.compiles(), 0u);
    EXPECT_EQ(own_model.compiles(), own.floorplan().has_fan_edge() ? 4u : 1u);
    EXPECT_EQ(shared_model.propagator_steps(), std::uint64_t(25 * substeps));
    EXPECT_EQ(own_model.propagator_steps(), std::uint64_t(25 * substeps));
  }
}

// Ambient variants of one platform differ only in temperatures, which never
// enter Phi/Gamma: the plan compiles their structure once and shares it.
TEST(PropagatorPlan, AmbientVariantsShareOneTable) {
  sim::ExperimentConfig config;
  config.engine = sim::Engine::kPropagator;
  sim::RunPlan plan(config);
  auto warm = std::make_shared<sim::PlatformDescriptor>(*config.platform);
  for (ThermalNode& node : warm->floorplan.nodes) {
    node.initial_temp_c += 10.0;
  }
  plan.cache_platform(warm);
  const sim::PlantTemplate* nominal = plan.template_for(*config.platform);
  const sim::PlantTemplate* shifted = plan.template_for(*warm);
  ASSERT_NE(nominal, nullptr);
  ASSERT_NE(shifted, nullptr);
  EXPECT_NE(nominal, shifted);
  EXPECT_EQ(nominal->propagators, shifted->propagators);
}

// Validation parity with RcNetwork::step.
TEST(PropagatorErrors, RejectsBadArguments) {
  Floorplan fp = make_default_floorplan();
  PropagatorRcModel engine;
  const std::size_t node_count = fp.network.node_count();
  const std::vector<double> short_power(node_count - 1, 1.0);
  EXPECT_THROW(engine.step(fp.network, 0.01, short_power),
               std::invalid_argument);
  const std::vector<double> power(node_count, 1.0);
  EXPECT_THROW(engine.step(fp.network, 0.0, power), std::invalid_argument);
  EXPECT_THROW(engine.step(fp.network, -1.0, power), std::invalid_argument);
  EXPECT_THROW(engine.matrices_for(fp.network, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dtpm::thermal
