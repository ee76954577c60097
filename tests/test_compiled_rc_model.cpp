// The network's compiled gather-form integrator: RcNetwork's gather-CSR RK4
// must be BIT-IDENTICAL to the edge-list scatter-form reference it replaced.
// The reference is reimplemented here verbatim, and randomized topologies,
// powers, step sizes, and mid-run conductance updates are driven through
// both and compared with exact equality -- the same contract the
// golden-trace suite enforces end-to-end. Also: the name map, the
// conductance signature, the cached stability bound, and race-free
// concurrent stepping (run under -fsanitize=thread in CI).
#include "thermal/rc_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "thermal/floorplan.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace dtpm::thermal {
namespace {

/// The edge-list reference integrator: the scatter-form RK4 the network
/// shipped with before its gather-form hot path, kept operation for
/// operation.
class ReferenceRcNetwork {
 public:
  ReferenceRcNetwork(std::vector<ThermalNode> nodes,
                     std::vector<ThermalEdge> edges)
      : nodes_(std::move(nodes)), edges_(std::move(edges)) {
    temps_.resize(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      temps_[i] = nodes_[i].initial_temp_c;
    }
    k1_.resize(nodes_.size());
    k2_.resize(nodes_.size());
    k3_.resize(nodes_.size());
    k4_.resize(nodes_.size());
    scratch_.resize(nodes_.size());
  }

  void set_edge_conductance(std::size_t e, double g) {
    edges_.at(e).conductance_w_per_k = g;
  }
  const std::vector<double>& temperatures_c() const { return temps_; }

  void derivative(const std::vector<double>& temps,
                  const std::vector<double>& power_w,
                  std::vector<double>& dtemps) const {
    std::fill(dtemps.begin(), dtemps.end(), 0.0);
    for (const auto& e : edges_) {
      const double flow =
          e.conductance_w_per_k * (temps[e.node_b] - temps[e.node_a]);
      dtemps[e.node_a] += flow;
      dtemps[e.node_b] -= flow;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].is_boundary) {
        dtemps[i] = 0.0;
      } else {
        dtemps[i] = (dtemps[i] + power_w[i]) / nodes_[i].capacitance_j_per_k;
      }
    }
  }

  void step(double dt_s, const std::vector<double>& power_w) {
    double tau_min = 1e30;
    std::vector<double> gsum(nodes_.size(), 0.0);
    for (const auto& e : edges_) {
      gsum[e.node_a] += e.conductance_w_per_k;
      gsum[e.node_b] += e.conductance_w_per_k;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].is_boundary || gsum[i] <= 0.0) continue;
      tau_min = std::min(tau_min, nodes_[i].capacitance_j_per_k / gsum[i]);
    }
    const double max_sub = std::max(1e-6, 0.25 * tau_min);
    const unsigned substeps = static_cast<unsigned>(std::ceil(dt_s / max_sub));
    const double h = dt_s / double(substeps);

    for (unsigned s = 0; s < substeps; ++s) {
      derivative(temps_, power_w, k1_);
      for (std::size_t i = 0; i < temps_.size(); ++i)
        scratch_[i] = temps_[i] + 0.5 * h * k1_[i];
      derivative(scratch_, power_w, k2_);
      for (std::size_t i = 0; i < temps_.size(); ++i)
        scratch_[i] = temps_[i] + 0.5 * h * k2_[i];
      derivative(scratch_, power_w, k3_);
      for (std::size_t i = 0; i < temps_.size(); ++i)
        scratch_[i] = temps_[i] + h * k3_[i];
      derivative(scratch_, power_w, k4_);
      for (std::size_t i = 0; i < temps_.size(); ++i) {
        temps_[i] += h / 6.0 * (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]);
      }
    }
  }

  std::vector<double> steady_state(const std::vector<double>& power_w) const {
    std::vector<std::size_t> free_index(nodes_.size(), SIZE_MAX);
    std::vector<std::size_t> free_nodes;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i].is_boundary) {
        free_index[i] = free_nodes.size();
        free_nodes.push_back(i);
      }
    }
    const std::size_t n = free_nodes.size();
    if (n == 0) return temps_;
    util::Matrix g(n, n);
    util::Matrix rhs(n, 1);
    for (std::size_t fi = 0; fi < n; ++fi) rhs(fi, 0) = power_w[free_nodes[fi]];
    for (const auto& e : edges_) {
      const bool a_free = free_index[e.node_a] != SIZE_MAX;
      const bool b_free = free_index[e.node_b] != SIZE_MAX;
      if (a_free)
        g(free_index[e.node_a], free_index[e.node_a]) += e.conductance_w_per_k;
      if (b_free)
        g(free_index[e.node_b], free_index[e.node_b]) += e.conductance_w_per_k;
      if (a_free && b_free) {
        g(free_index[e.node_a], free_index[e.node_b]) -= e.conductance_w_per_k;
        g(free_index[e.node_b], free_index[e.node_a]) -= e.conductance_w_per_k;
      } else if (a_free) {
        rhs(free_index[e.node_a], 0) += e.conductance_w_per_k * temps_[e.node_b];
      } else if (b_free) {
        rhs(free_index[e.node_b], 0) += e.conductance_w_per_k * temps_[e.node_a];
      }
    }
    const util::Matrix sol = g.solve(rhs);
    std::vector<double> out = temps_;
    for (std::size_t fi = 0; fi < n; ++fi) out[free_nodes[fi]] = sol(fi, 0);
    return out;
  }

 private:
  std::vector<ThermalNode> nodes_;
  std::vector<ThermalEdge> edges_;
  std::vector<double> temps_;
  mutable std::vector<double> k1_, k2_, k3_, k4_, scratch_;
};

/// Random connected topology: a spanning tree plus extra edges. Boundary
/// nodes are sprinkled in (always keeping at least one free node), and node
/// ordering is shuffled so the network's non-contiguous free-node path gets
/// exercised alongside the contiguous one.
struct RandomNetwork {
  std::vector<ThermalNode> nodes;
  std::vector<ThermalEdge> edges;
};

RandomNetwork make_random_network(util::Rng& rng) {
  RandomNetwork out;
  const int n = int(rng.uniform_int(3, 12));
  for (int i = 0; i < n; ++i) {
    ThermalNode node;
    node.name = "n" + std::to_string(i);
    node.capacitance_j_per_k = rng.uniform(0.02, 5.0);
    node.initial_temp_c = rng.uniform(20.0, 90.0);
    node.is_boundary = i != 0 && rng.bernoulli(0.25);
    out.nodes.push_back(node);
  }
  for (int i = 1; i < n; ++i) {
    out.edges.push_back({std::size_t(rng.uniform_int(0, i - 1)),
                         std::size_t(i), rng.uniform(0.05, 3.0)});
  }
  const int extra = int(rng.uniform_int(0, n));
  for (int e = 0; e < extra; ++e) {
    const std::size_t a = std::size_t(rng.uniform_int(0, n - 1));
    const std::size_t b = std::size_t(rng.uniform_int(0, n - 1));
    if (a == b) continue;
    out.edges.push_back({a, b, rng.uniform(0.05, 3.0)});
  }
  return out;
}

std::vector<double> random_power(util::Rng& rng, std::size_t n) {
  std::vector<double> p(n);
  for (double& v : p) v = rng.uniform(0.0, 6.0);
  return p;
}

TEST(RcNetwork, RandomizedStepEquivalence) {
  util::Rng rng(0xC0117ED);
  for (int trial = 0; trial < 50; ++trial) {
    const RandomNetwork topo = make_random_network(rng);
    RcNetwork net(topo.nodes, topo.edges);
    ReferenceRcNetwork reference(topo.nodes, topo.edges);

    for (int s = 0; s < 20; ++s) {
      const std::vector<double> power = random_power(rng, topo.nodes.size());
      const double dt = rng.uniform(0.002, 0.5);
      net.step(dt, power);
      reference.step(dt, power);
      for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
        ASSERT_EQ(net.temperature_c(i), reference.temperatures_c()[i])
            << "trial " << trial << " step " << s << " node " << i
            << ": gather integrator drifted from the reference";
      }
    }
  }
}

TEST(RcNetwork, ConductanceUpdateMidRunStaysEquivalent) {
  // The fan path: change an edge conductance between steps and keep
  // integrating; the cached stability bound and gather copies must track
  // it.
  util::Rng rng(0xFA4);
  for (int trial = 0; trial < 20; ++trial) {
    const RandomNetwork topo = make_random_network(rng);
    RcNetwork net(topo.nodes, topo.edges);
    ReferenceRcNetwork reference(topo.nodes, topo.edges);

    for (int s = 0; s < 12; ++s) {
      if (rng.bernoulli(0.5)) {
        const std::size_t e = std::size_t(
            rng.uniform_int(0, std::int64_t(topo.edges.size()) - 1));
        const double g = rng.uniform(0.05, 4.0);
        net.set_edge_conductance(e, g);
        reference.set_edge_conductance(e, g);
      }
      const std::vector<double> power = random_power(rng, topo.nodes.size());
      net.step(0.05, power);
      reference.step(0.05, power);
      for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
        ASSERT_EQ(net.temperature_c(i), reference.temperatures_c()[i])
            << "trial " << trial << " step " << s << " node " << i;
      }
    }
  }
}

TEST(RcNetwork, SteadyStateEquivalence) {
  util::Rng rng(0x57EAD1);
  for (int trial = 0; trial < 25; ++trial) {
    RandomNetwork topo = make_random_network(rng);
    // A boundary node keeps the steady-state system nonsingular.
    topo.nodes.back().is_boundary = true;
    RcNetwork net(topo.nodes, topo.edges);
    ReferenceRcNetwork reference(topo.nodes, topo.edges);
    const std::vector<double> power = random_power(rng, topo.nodes.size());
    const auto a = net.steady_state(power);
    const auto b = reference.steady_state(power);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "trial " << trial << " node " << i;
    }
  }
}

TEST(RcNetwork, DefaultFloorplanStepEquivalence) {
  // The floorplan every Simulation runs: step the network and the
  // reference integrator (built from the same topology) through a power
  // profile with a fan-conductance change halfway.
  Floorplan fp = make_default_floorplan();
  const std::size_t node_count = fp.network.node_count();
  std::vector<ThermalEdge> edges;
  for (std::size_t e = 0; e < fp.network.edge_count(); ++e) {
    edges.push_back({fp.network.edge_node_a(e), fp.network.edge_node_b(e),
                     fp.network.edge_conductance(e)});
  }
  ReferenceRcNetwork reference(fp.spec.nodes, edges);

  util::Rng rng(99);
  std::vector<double> power(node_count, 0.0);
  for (int s = 0; s < 200; ++s) {
    for (std::size_t i = 0; i < 7; ++i) power[i] = rng.uniform(0.0, 3.0);
    if (s == 100) {
      fp.network.set_edge_conductance(fp.fan_edge, 0.83);
      reference.set_edge_conductance(fp.fan_edge, 0.83);
    }
    fp.network.step(0.01, power);
    reference.step(0.01, power);
    for (std::size_t i = 0; i < node_count; ++i) {
      ASSERT_EQ(fp.network.temperature_c(i), reference.temperatures_c()[i]);
    }
  }
}

TEST(RcNetwork, NameIndexMatchesLinearScan) {
  const Floorplan fp = make_default_floorplan();
  for (std::size_t i = 0; i < fp.spec.nodes.size(); ++i) {
    EXPECT_EQ(fp.network.index_of(fp.spec.nodes[i].name), i);
  }
  EXPECT_THROW(fp.network.index_of("nope"), std::invalid_argument);
  EXPECT_THROW(fp.network.index_of(""), std::invalid_argument);
  // Duplicate names resolve to the lowest index, like a first-match scan.
  const RcNetwork dup({{"b", 1.0, 25.0, false},
                       {"a", 1.0, 25.0, false},
                       {"a", 1.0, 25.0, true}},
                      {{0, 1, 0.5}, {1, 2, 0.5}});
  EXPECT_EQ(dup.index_of("a"), 1u);
  EXPECT_EQ(dup.index_of("b"), 0u);
}

TEST(RcNetwork, ConductanceSignatureTracksValues) {
  const Floorplan fp = make_default_floorplan();
  RcNetwork net = fp.network;
  const std::uint64_t fan_off = net.conductance_signature();
  EXPECT_EQ(fan_off, fp.network.conductance_signature());
  const double g0 = net.edge_conductance(fp.fan_edge);
  net.set_edge_conductance(fp.fan_edge, g0);  // unchanged write
  EXPECT_EQ(net.conductance_signature(), fan_off);
  net.set_edge_conductance(fp.fan_edge, 0.83);  // a real change
  const std::uint64_t fan_on = net.conductance_signature();
  EXPECT_NE(fan_on, fan_off);
  net.set_edge_conductance(fp.fan_edge, 0.83);
  EXPECT_EQ(net.conductance_signature(), fan_on);
  net.set_edge_conductance(fp.fan_edge, g0);  // back to the first state
  EXPECT_EQ(net.conductance_signature(), fan_off);
}

// Two networks stepping the same dt from different threads: the subdivision
// is computed per call (no shared last-seen-dt cache to race on), so both
// integrations are bit-identical to a serial run. Run under
// -fsanitize=thread in CI to pin the data-race-freedom claim.
TEST(RcNetwork, ConcurrentSameDtStepsMatchSerial) {
  const Floorplan serial_a = make_default_floorplan();
  const Floorplan serial_b = make_default_floorplan();
  Floorplan threaded_a = make_default_floorplan();
  Floorplan threaded_b = make_default_floorplan();

  const std::size_t node_count = serial_a.network.node_count();
  const std::vector<double> power_a(node_count, 2.0);
  const std::vector<double> power_b(node_count, 3.5);
  constexpr int kSteps = 2000;
  constexpr double kDt = 0.01;

  Floorplan expected_a = serial_a;
  Floorplan expected_b = serial_b;
  for (int k = 0; k < kSteps; ++k) {
    expected_a.network.step(kDt, power_a);
    expected_b.network.step(kDt, power_b);
  }

  std::thread ta([&] {
    for (int k = 0; k < kSteps; ++k) threaded_a.network.step(kDt, power_a);
  });
  std::thread tb([&] {
    for (int k = 0; k < kSteps; ++k) threaded_b.network.step(kDt, power_b);
  });
  ta.join();
  tb.join();

  for (std::size_t i = 0; i < node_count; ++i) {
    EXPECT_EQ(threaded_a.network.temperature_c(i),
              expected_a.network.temperature_c(i));
    EXPECT_EQ(threaded_b.network.temperature_c(i),
              expected_b.network.temperature_c(i));
  }
}

TEST(RcNetwork, StabilityBoundTracksConductance) {
  RcNetwork net({{"die", 0.05, 25.0, false}, {"amb", 1.0, 25.0, true}},
                {{0, 1, 2.0}});
  const double before = net.max_stable_substep_s();
  EXPECT_NEAR(before, 0.25 * 0.05 / 2.0, 1e-15);
  net.set_edge_conductance(0, 4.0);
  EXPECT_NEAR(net.max_stable_substep_s(), 0.25 * 0.05 / 4.0, 1e-15);
  // Unchanged write is a no-op (and must not perturb the bound).
  net.set_edge_conductance(0, 4.0);
  EXPECT_NEAR(net.max_stable_substep_s(), 0.25 * 0.05 / 4.0, 1e-15);
}

}  // namespace
}  // namespace dtpm::thermal
