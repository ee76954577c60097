// Linearized stability analysis of the coupled power-temperature dynamics.
//
// The plant between DVFS decisions is the autonomous system
//
//     C dT/dt = -G.T + P(T) + g_b.T_boundary
//
// where G is the conductance matrix reduced to the free (non-boundary)
// nodes, C the diagonal heat-capacity matrix, and P(T) the per-node power
// at the applied operating point -- the plant's own power model,
// soc::Soc::step_captured written through Floorplan::write_heat, so the
// analyzer and the simulator cannot disagree on P. Linearizing at an
// equilibrium T* folds the leakage Jacobian J = dP/dT (Soc::heat_jacobian
// mapped through the same heat nodes) into the conductance matrix:
//
//     C dx/dt = (-G + J) x,       x = T - T*
//
// T* is asymptotically stable iff A = C^-1 (-G + J) is Hurwitz, which for
// this system is equivalent to the loop gain rho(G^-1 J) < 1 -- the same
// spectral condition that governs convergence of the equilibrium fixed
// point (analysis/equilibrium.hpp). Both quantities are reported: the loop
// gain gives the dimensionless stability margin 1 - rho, the spectral
// abscissa of A gives the growth/decay rate in 1/s. See PAPERS.md,
// "Power-Temperature Stability and Safety Analysis for Multiprocessor
// Systems" and "Analysis and Control of Power-Temperature Dynamics in
// Heterogeneous Multiprocessors".
#pragma once

#include <vector>

#include "soc/soc.hpp"
#include "thermal/floorplan.hpp"
#include "util/matrix.hpp"

namespace dtpm::analysis {

/// The plant's power as an explicit function of node temperatures at one
/// applied (config, schedule) operating point: Soc::step_captured at the
/// heat-source nodes' temperatures, written onto the floorplan through
/// Floorplan::heat_nodes/write_heat exactly as sim::Plant does. Construct it
/// after Soc::solve_schedule; it keeps its own copy of the solved Soc.
class CoupledPowerModel {
 public:
  CoupledPowerModel(const thermal::Floorplan& floorplan, const soc::Soc& soc);

  /// Node power vector (W, indexed like the network) at `temps_c`; the
  /// NodePowerFn shape solve_coupled_equilibrium consumes. Non-const only
  /// because step_captured also books workload progress on the copy.
  void node_power(const std::vector<double>& temps_c,
                  std::vector<double>& node_power_w);

  /// Leakage Jacobian dP/dT restricted to the free nodes, ordered like
  /// RcNetwork::free_nodes().
  util::Matrix free_power_jacobian(const std::vector<double>& temps_c) const;

 private:
  const thermal::Floorplan& floorplan_;
  thermal::Floorplan::HeatNodes heat_nodes_;
  soc::Soc soc_;
};

struct StabilityReport {
  /// rho(G^-1 dP/dT) at the evaluated temperatures. < 1 iff stable.
  double loop_gain = 0.0;
  /// 1 - loop_gain: fraction of additional leakage-temperature feedback the
  /// operating point can absorb before running away.
  double stability_margin = 0.0;
  /// max Re(lambda) of C^-1 (-G + dP/dT), in 1/s: the slowest decay rate
  /// (negative) or the runaway growth rate (positive).
  double spectral_abscissa_per_s = 0.0;
  bool stable = false;
};

/// Linearizes the coupled dynamics at the network's *current* temperatures
/// (call after solve_coupled_equilibrium converged there).
StabilityReport analyze_stability(const thermal::Floorplan& floorplan,
                                  const CoupledPowerModel& model);

}  // namespace dtpm::analysis
