#include "analysis/stability.hpp"

#include <algorithm>
#include <array>

namespace dtpm::analysis {

static_assert(soc::kHeatSourceCount == thermal::Floorplan::kHeatSourceCount,
              "the SoC's heat sources and the floorplan's heat nodes pair up");

CoupledPowerModel::CoupledPowerModel(const thermal::Floorplan& floorplan,
                                     const soc::Soc& soc)
    : floorplan_(floorplan), heat_nodes_(floorplan.heat_nodes()), soc_(soc) {}

void CoupledPowerModel::node_power(const std::vector<double>& temps_c,
                                   std::vector<double>& node_power_w) {
  const auto at = [&](std::size_t i) { return temps_c[heat_nodes_[i]]; };
  soc::SocStepResult out;
  // Any positive dt: it only drains the copy's migration stall into the
  // progress output, which node power does not read.
  soc_.step_captured({at(0), at(1), at(2), at(3)}, at(4), at(5), at(6), 1.0,
                     out);
  node_power_w.assign(temps_c.size(), 0.0);
  thermal::Floorplan::write_heat(heat_nodes_, out.big_core_power_w,
                                 out.rail_power_w, node_power_w);
}

util::Matrix CoupledPowerModel::free_power_jacobian(
    const std::vector<double>& temps_c) const {
  const thermal::RcNetwork& network = floorplan_.network;
  const std::size_t n = network.free_nodes().size();
  const auto at = [&](std::size_t i) { return temps_c[heat_nodes_[i]]; };
  const soc::HeatJacobian source_jacobian = soc_.heat_jacobian(
      {at(0), at(1), at(2), at(3)}, at(4), at(5), at(6));
  std::array<std::size_t, soc::kHeatSourceCount> pos{};
  for (std::size_t i = 0; i < pos.size(); ++i) {
    pos[i] = network.free_slot(heat_nodes_[i]);
  }
  // Heat nodes are distinct (validate_floorplan_spec), so each source pair
  // owns one entry.
  util::Matrix j(n, n);
  for (std::size_t r = 0; r < pos.size(); ++r) {
    for (std::size_t c = 0; c < pos.size(); ++c) {
      j(pos[r], pos[c]) = source_jacobian[r][c];
    }
  }
  return j;
}

StabilityReport analyze_stability(const thermal::Floorplan& floorplan,
                                  const CoupledPowerModel& model) {
  const thermal::RcNetwork& network = floorplan.network;
  const auto& free_nodes = network.free_nodes();
  const std::size_t n = free_nodes.size();
  const util::Matrix g = network.free_conductance_matrix();

  const util::Matrix j = model.free_power_jacobian(network.temperatures_c());

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
    const double inv_c = 1.0 / network.node(free_nodes[r]).capacitance_j_per_k;
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
