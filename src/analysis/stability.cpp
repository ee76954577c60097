#include "analysis/stability.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "power/leakage.hpp"
#include "thermal/compiled_rc_model.hpp"

namespace dtpm::analysis {

namespace {

/// Leakage power (W) of collapsed coefficients at one temperature.
double leakage_w(const power::LeakageCoeffs& k, double temp_c) {
  const double tk = power::celsius_to_kelvin(temp_c);
  return k.t2_scale_w * tk * tk * std::exp(k.c2_k / tk) + k.gate_w;
}

/// d(leakage)/dT in W/K: d/dT [s Tk^2 e^(c2/Tk)] = s e^(c2/Tk) (2 Tk - c2).
double leakage_slope_w_per_k(const power::LeakageCoeffs& k, double temp_c) {
  const double tk = power::celsius_to_kelvin(temp_c);
  return k.t2_scale_w * std::exp(k.c2_k / tk) * (2.0 * tk - k.c2_k);
}

/// Position of `node` within free_nodes (ascending), or npos for boundary.
std::size_t free_position(const std::vector<std::size_t>& free_nodes,
                          std::size_t node) {
  const auto it = std::lower_bound(free_nodes.begin(), free_nodes.end(), node);
  if (it == free_nodes.end() || *it != node) {
    return static_cast<std::size_t>(-1);
  }
  return std::size_t(it - free_nodes.begin());
}

}  // namespace

CoupledPowerModel::CoupledPowerModel(const thermal::Floorplan& floorplan,
                                     const soc::SocIntervalConstants& constants)
    : floorplan_(floorplan), constants_(constants) {
  if (floorplan.core_node_index.size() != std::size_t(soc::kBigCoreCount)) {
    throw std::invalid_argument(
        "CoupledPowerModel: floorplan must map one node per big core");
  }
}

void CoupledPowerModel::node_power(const std::vector<double>& temps_c,
                                   std::vector<double>& node_power_w) const {
  node_power_w.assign(temps_c.size(), 0.0);
  const soc::SocIntervalConstants& k = constants_;
  const double leak0 =
      leakage_w(k.big_leak, temps_c[floorplan_.core_node_index[0]]);
  for (int c = 0; c < soc::kBigCoreCount; ++c) {
    const std::size_t node = floorplan_.core_node_index[std::size_t(c)];
    node_power_w[node] = k.core_const_w[c] +
                         k.core_leak_mult[c] * leakage_w(k.big_leak,
                                                         temps_c[node]) +
                         k.core_leak0_mult[c] * leak0;
  }
  node_power_w[floorplan_.little_node_index] +=
      k.little_const_w +
      k.little_leak_mult *
          leakage_w(k.little_leak, temps_c[floorplan_.little_node_index]);
  node_power_w[floorplan_.gpu_node_index] +=
      k.gpu_const_w + leakage_w(k.gpu_leak,
                                temps_c[floorplan_.gpu_node_index]);
  node_power_w[floorplan_.mem_node_index] +=
      k.mem_const_w + leakage_w(k.mem_leak,
                                temps_c[floorplan_.mem_node_index]);
}

util::Matrix CoupledPowerModel::free_power_jacobian(
    const std::vector<double>& temps_c) const {
  const auto& free_nodes = floorplan_.network.compiled().free_nodes();
  const std::size_t n = free_nodes.size();
  util::Matrix j(n, n);
  const soc::SocIntervalConstants& k = constants_;

  const std::size_t core0 = floorplan_.core_node_index[0];
  const std::size_t core0_pos = free_position(free_nodes, core0);
  const double slope0 = leakage_slope_w_per_k(k.big_leak, temps_c[core0]);
  for (int c = 0; c < soc::kBigCoreCount; ++c) {
    const std::size_t node = floorplan_.core_node_index[std::size_t(c)];
    const std::size_t pos = free_position(free_nodes, node);
    j(pos, pos) += k.core_leak_mult[c] *
                   leakage_slope_w_per_k(k.big_leak, temps_c[node]);
    // The offline-cluster leakage rides on core 0's temperature (the
    // core_leak0_mult term), so it contributes an off-diagonal column.
    j(pos, core0_pos) += k.core_leak0_mult[c] * slope0;
  }
  const std::size_t little_pos =
      free_position(free_nodes, floorplan_.little_node_index);
  j(little_pos, little_pos) +=
      k.little_leak_mult *
      leakage_slope_w_per_k(k.little_leak,
                            temps_c[floorplan_.little_node_index]);
  const std::size_t gpu_pos =
      free_position(free_nodes, floorplan_.gpu_node_index);
  j(gpu_pos, gpu_pos) +=
      leakage_slope_w_per_k(k.gpu_leak, temps_c[floorplan_.gpu_node_index]);
  const std::size_t mem_pos =
      free_position(free_nodes, floorplan_.mem_node_index);
  j(mem_pos, mem_pos) +=
      leakage_slope_w_per_k(k.mem_leak, temps_c[floorplan_.mem_node_index]);
  return j;
}

StabilityReport analyze_stability(const thermal::Floorplan& floorplan,
                                  const CoupledPowerModel& model) {
  const thermal::CompiledRcModel& compiled = floorplan.network.compiled();
  const auto& free_nodes = compiled.free_nodes();
  const std::size_t n = free_nodes.size();

  // Conductance matrix reduced to the free nodes: boundary couplings only
  // contribute to the diagonal (their fixed temperatures are inputs, not
  // states).
  util::Matrix g(n, n);
  for (std::size_t e = 0; e < compiled.edge_count(); ++e) {
    const double cond = compiled.edge_conductance(e);
    const std::size_t a = compiled.edge_node_a(e);
    const std::size_t b = compiled.edge_node_b(e);
    const std::size_t pa = free_position(free_nodes, a);
    const std::size_t pb = free_position(free_nodes, b);
    const bool a_free = pa != static_cast<std::size_t>(-1);
    const bool b_free = pb != static_cast<std::size_t>(-1);
    if (a_free) g(pa, pa) += cond;
    if (b_free) g(pb, pb) += cond;
    if (a_free && b_free) {
      g(pa, pb) -= cond;
      g(pb, pa) -= cond;
    }
  }

  const util::Matrix j =
      model.free_power_jacobian(floorplan.network.temperatures_c());

  StabilityReport report;
  // Loop gain of the leakage-temperature feedback: rho(G^-1 J). G^-1 is
  // nonnegative (G is an M-matrix) and J is nonnegative, so the dominant
  // eigenvalue is the real Perron root and power iteration converges.
  report.loop_gain = g.solve(j).spectral_radius();
  report.stability_margin = 1.0 - report.loop_gain;

  // Spectral abscissa of A = C^-1 (-G + J). A is Metzler (nonnegative
  // off-diagonals), so shifting by the most negative diagonal makes it a
  // nonnegative matrix whose Perron root is abscissa + shift.
  util::Matrix a(n, n);
  double shift = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const double inv_c = 1.0 / compiled.capacitance_j_per_k(free_nodes[r]);
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = inv_c * (-g(r, c) + j(r, c));
    }
    shift = std::max(shift, -a(r, r));
  }
  util::Matrix b = a;
  for (std::size_t r = 0; r < n; ++r) b(r, r) += shift;
  report.spectral_abscissa_per_s = b.spectral_radius() - shift;

  report.stable = report.loop_gain < 1.0;
  return report;
}

}  // namespace dtpm::analysis
