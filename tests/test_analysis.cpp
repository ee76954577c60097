// Tests for the stability & safety analysis toolkit (analysis/): the shared
// coupled-equilibrium solver, the linearized stability classifier, and the
// platform analyzer / safe-envelope derivation behind `dtpm analyze`.
#include "analysis/analyzer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/equilibrium.hpp"
#include "analysis/stability.hpp"
#include "sim/platform_registry.hpp"
#include "soc/soc.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_network.hpp"
#include "util/json.hpp"

namespace dtpm::analysis {
namespace {

constexpr double kAmbientC = 25.0;

/// One free node (index 0) tied to a 25 C boundary through 0.5 W/K.
thermal::RcNetwork single_node_network() {
  std::vector<thermal::ThermalNode> nodes(2);
  nodes[0].name = "die";
  nodes[0].capacitance_j_per_k = 1.0;
  nodes[0].initial_temp_c = kAmbientC;
  nodes[1].name = "ambient";
  nodes[1].is_boundary = true;
  nodes[1].initial_temp_c = kAmbientC;
  return thermal::RcNetwork(std::move(nodes), {{0, 1, 0.5}});
}

TEST(Equilibrium, TemperatureIndependentPowerSolvesInOnePass) {
  thermal::RcNetwork network = single_node_network();
  const EquilibriumResult result = solve_coupled_equilibrium(
      network, [](const std::vector<double>&, std::vector<double>& p) {
        p.assign(2, 0.0);
        p[0] = 1.0;
      });
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.diverged);
  // T* = ambient + P/G = 25 + 1/0.5.
  EXPECT_NEAR(network.temperatures_c()[0], kAmbientC + 2.0, 1e-9);
  // Boundary node untouched.
  EXPECT_EQ(network.temperatures_c()[1], kAmbientC);
}

TEST(Equilibrium, SubcriticalFeedbackConvergesToClosedForm) {
  thermal::RcNetwork network = single_node_network();
  // P(T) = 1 + 0.3 (T - 25): feedback gain k/G = 0.6 < 1, so the fixed
  // point T* = 25 + 1/(G - k) = 30 exists and the iteration contracts.
  const EquilibriumResult result = solve_coupled_equilibrium(
      network, [](const std::vector<double>& temps, std::vector<double>& p) {
        p.assign(2, 0.0);
        p[0] = 1.0 + 0.3 * (temps[0] - kAmbientC);
      });
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 1);
  EXPECT_LT(result.residual_c, 1e-6);
  EXPECT_NEAR(network.temperatures_c()[0], 30.0, 1e-5);
}

TEST(Equilibrium, SupercriticalFeedbackReportsDivergence) {
  thermal::RcNetwork network = single_node_network();
  // k/G = 2 > 1: no stable fixed point; every iterate overshoots further.
  // The solver must say so loudly instead of returning the last iterate.
  const EquilibriumResult result = solve_coupled_equilibrium(
      network, [](const std::vector<double>& temps, std::vector<double>& p) {
        p.assign(2, 0.0);
        p[0] = 1.0 + 1.0 * (temps[0] - kAmbientC);
      });
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.diverged);
}

TEST(Equilibrium, RejectsMalformedOptions) {
  thermal::RcNetwork network = single_node_network();
  const NodePowerFn constant = [](const std::vector<double>&,
                                  std::vector<double>& p) {
    p.assign(2, 0.0);
  };
  EquilibriumOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(solve_coupled_equilibrium(network, constant, bad),
               std::invalid_argument);
  bad = EquilibriumOptions{};
  bad.tolerance_c = 0.0;
  EXPECT_THROW(solve_coupled_equilibrium(network, constant, bad),
               std::invalid_argument);
}

TEST(Analysis, EveryRegistryPlatformPassesTheRegistrationGate) {
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  for (const std::string& name : registry.names()) {
    EXPECT_NO_THROW(validate_platform_stability(*registry.get(name)))
        << "platform " << name;
  }
}

/// The analyzer linearizes the plant's own power model: on every registry
/// platform, CoupledPowerModel::node_power equals a full Soc::step written
/// through write_heat into a zeroed vector -- what the simulator heats its
/// network with -- on every node, with the big cluster fully or partly
/// online and with the little cluster active, across a range of
/// temperatures.
TEST(Analysis, CoupledPowerModelEqualsThePlantBitForBit) {
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  AnalysisWorkload workload;
  workload.threads = 3;
  workload.gpu_load = 0.4;
  const workload::Demand demand = analysis_demand(workload);
  for (const std::string& name : registry.names()) {
    const sim::PlatformDescriptor& platform = *registry.get(name);
    const thermal::Floorplan floorplan =
        thermal::build_floorplan(platform.floorplan);
    soc::Soc soc(platform.power, platform.perf, platform.big_opp_table(),
                 platform.little_opp_table(), platform.gpu_opp_table());
    soc::SocConfig config;
    config.big_freq_hz = soc.big_opps().max().frequency_hz;
    config.little_freq_hz = soc.little_opps().max().frequency_hz;
    config.gpu_freq_hz = soc.gpu_opps().max().frequency_hz;
    std::vector<soc::SocConfig> configs{config};
    config.big_core_online = {true, false, true, false};
    configs.push_back(config);
    config.active_cluster = soc::ClusterId::kLittle;
    configs.push_back(config);

    for (const soc::SocConfig& applied : configs) {
      soc.apply(applied);
      soc.solve_schedule(demand, {});
      CoupledPowerModel model(floorplan, soc);
      for (double base_c = 30.0; base_c <= 105.0; base_c += 15.0) {
        std::vector<double> temps(floorplan.network.node_count());
        for (std::size_t i = 0; i < temps.size(); ++i) {
          temps[i] = base_c + 1.75 * double(i % 5) - 0.5 * double(i % 3);
        }
        std::vector<double> analyzed;
        model.node_power(temps, analyzed);

        const auto& cores = floorplan.core_node_index;
        const soc::SocStepResult step = soc.step(
            demand, {},
            {temps[cores[0]], temps[cores[1]], temps[cores[2]],
             temps[cores[3]]},
            temps[floorplan.little_node_index],
            temps[floorplan.gpu_node_index], temps[floorplan.mem_node_index],
            0.01);
        std::vector<double> simulated(floorplan.network.node_count(), 0.0);
        thermal::Floorplan::write_heat(floorplan.heat_nodes(),
                                       step.big_core_power_w,
                                       step.rail_power_w, simulated);
        EXPECT_EQ(analyzed, simulated)
            << name << ", " << applied.online_big_cores() << " big online, "
            << (applied.active_cluster == soc::ClusterId::kLittle ? "little"
                                                                   : "big")
            << " active, base " << base_c << " C";
      }
    }
  }
}

TEST(Analysis, EveryRegistryPlatformIsStableAcrossTheFullSweep) {
  // The three built-ins model real hardware: every operating point in the
  // default sweep must have a converged, runaway-stable equilibrium (the
  // envelope may still be t_max-limited -- that is a constraint, not an
  // instability).
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  for (const std::string& name : registry.names()) {
    const PlatformAnalysis analysis = analyze_platform(*registry.get(name));
    ASSERT_EQ(analysis.envelope.size(), analysis.ambients.size());
    for (const AmbientAnalysis& ambient : analysis.ambients) {
      ASSERT_FALSE(ambient.cooling.empty());
      for (const CoolingStateAnalysis& cooling : ambient.cooling) {
        for (const OperatingPointAnalysis& point : cooling.points) {
          EXPECT_TRUE(point.converged)
              << name << " opp " << point.opp_index << " @ "
              << ambient.ambient_c << " C, " << cooling.label;
          EXPECT_TRUE(point.stable)
              << name << " opp " << point.opp_index << " @ "
              << ambient.ambient_c << " C, " << cooling.label;
          EXPECT_GT(point.stability_margin, 0.0);
          EXPECT_LT(point.spectral_abscissa_per_s, 0.0);
          // An equilibrium cannot sit below ambient: power is nonnegative.
          EXPECT_GE(point.max_temp_c, ambient.ambient_c - 1e-6);
        }
      }
    }
  }
}

TEST(Analysis, CoolingStatesMatchTheHardware) {
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  // Fanless platforms analyze one "passive" state; the Odroid's four fan
  // speeds dedup to however many distinct conductances the fan model has,
  // sorted ascending so .back() is always the best cooling.
  const PlatformAnalysis compact =
      analyze_platform(*registry.get("compact"));
  ASSERT_FALSE(compact.ambients.empty());
  ASSERT_EQ(compact.ambients[0].cooling.size(), 1u);
  EXPECT_EQ(compact.ambients[0].cooling[0].label, "passive");

  const PlatformAnalysis odroid =
      analyze_platform(*registry.get("odroid-xu-e"));
  ASSERT_FALSE(odroid.ambients.empty());
  const std::vector<CoolingStateAnalysis>& cooling =
      odroid.ambients[0].cooling;
  ASSERT_GE(cooling.size(), 2u);
  for (std::size_t i = 1; i < cooling.size(); ++i) {
    EXPECT_GT(cooling[i].conductance_w_per_k,
              cooling[i - 1].conductance_w_per_k);
  }
  EXPECT_EQ(cooling.back().label, "full");
}

TEST(Analysis, CompactEnvelopeIsTmaxLimitedAndMonotoneInAmbient) {
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  const sim::PlatformPtr compact = registry.get("compact");
  const PlatformAnalysis analysis = analyze_platform(*compact);
  ASSERT_EQ(analysis.envelope.size(), 4u);

  // At 25 C the skin-limited phone cannot sustain its top OPP: the envelope
  // must cap strictly below the table maximum, attributed to t-max.
  const EnvelopePoint& at_25 = analysis.envelope[1];
  ASSERT_EQ(at_25.ambient_c, 25.0);
  ASSERT_GE(at_25.max_safe_opp_index, 0);
  EXPECT_LT(std::size_t(at_25.max_safe_opp_index),
            compact->big_opps.size() - 1);
  EXPECT_EQ(at_25.limit, "t-max");

  // Hotter ambient can never widen the envelope.
  for (std::size_t i = 1; i < analysis.envelope.size(); ++i) {
    EXPECT_LE(analysis.envelope[i].max_safe_opp_index,
              analysis.envelope[i - 1].max_safe_opp_index);
  }
}

TEST(Analysis, AnalyzerAgreesWithTheSharedSolverPointwise) {
  // analyze_platform is a sweep over analyze_operating_point; spot-check one
  // cell against a direct call with the same request.
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  const sim::PlatformPtr dragon = registry.get("dragon");
  AnalysisOptions options;
  options.ambients_c = {30.0};
  const PlatformAnalysis analysis = analyze_platform(*dragon, options);
  ASSERT_EQ(analysis.ambients.size(), 1u);
  const CoolingStateAnalysis& cooling = analysis.ambients[0].cooling.back();

  OperatingPointRequest request;
  request.big_opp_index = 2;
  request.cooling_conductance_w_per_k = cooling.conductance_w_per_k;
  request.ambient_c = 30.0;
  request.demand = analysis_demand(options.workload);
  const OperatingPointAnalysis direct =
      analyze_operating_point(*dragon, request);
  ASSERT_GT(cooling.points.size(), 2u);
  EXPECT_NEAR(direct.max_core_temp_c, cooling.points[2].max_core_temp_c,
              1e-9);
  EXPECT_NEAR(direct.loop_gain, cooling.points[2].loop_gain, 1e-12);
}

TEST(Analysis, JsonDocumentCarriesTheFullSweep) {
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  const sim::PlatformPtr compact = registry.get("compact");
  AnalysisOptions options;
  options.ambients_c = {25.0};
  const PlatformAnalysis analysis = analyze_platform(*compact, options);
  const util::JsonValue json = to_json(analysis);

  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.find("platform")->as_string(), "compact");
  EXPECT_EQ(json.find("t_max_c")->as_number(), compact->default_t_max_c);
  EXPECT_EQ(json.find("runaway_abort_temp_c")->as_number(),
            compact->resolved_runaway_abort_temp_c());

  const util::JsonValue* envelope = json.find("envelope");
  ASSERT_NE(envelope, nullptr);
  ASSERT_EQ(envelope->as_array().size(), 1u);
  const util::JsonValue& entry = envelope->as_array()[0];
  EXPECT_EQ(entry.find("ambient_c")->as_number(), 25.0);
  EXPECT_EQ(entry.find("limit")->as_string(), "t-max");

  const util::JsonValue* ambients = json.find("ambients");
  ASSERT_NE(ambients, nullptr);
  ASSERT_EQ(ambients->as_array().size(), 1u);
  const util::JsonValue& cooling =
      ambients->as_array()[0].find("cooling")->as_array()[0];
  EXPECT_EQ(cooling.find("state")->as_string(), "passive");
  EXPECT_EQ(cooling.find("opps")->as_array().size(),
            compact->big_opps.size());
  const util::JsonValue& opp0 = cooling.find("opps")->as_array()[0];
  EXPECT_TRUE(opp0.find("converged")->as_bool());
  EXPECT_TRUE(opp0.find("stable")->as_bool());
  EXPECT_GT(opp0.find("stability_margin")->as_number(), 0.0);
}

TEST(Analysis, RoundTripThroughJsonTextStaysParseable) {
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  AnalysisOptions options;
  options.ambients_c = {25.0};
  const PlatformAnalysis analysis =
      analyze_platform(*registry.get("dragon"), options);
  const std::string text = util::json_write(to_json(analysis));
  const util::JsonValue parsed = util::json_parse(text);
  EXPECT_EQ(parsed.find("platform")->as_string(), "dragon");
}

}  // namespace
}  // namespace dtpm::analysis
