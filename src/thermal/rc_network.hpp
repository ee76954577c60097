// Continuous-time RC thermal network: the ground-truth "physics" that stands
// in for the Exynos 5410 die + package + board of the Odroid-XU+E.
//
// The network solves  C dT/dt = -G T(t) + P(t)  (Eq. 4.3 of the paper) with a
// classical RK4 integrator. Nodes may be pinned to a fixed temperature
// (ambient, or the furnace chamber during leakage characterization). The DTPM
// stack never sees this model directly: it observes the plant only through
// quantized, noisy sensors, and identifies its own reduced 4x4 model from
// those observations, exactly as the paper does against real hardware.
//
// Model construction is split from model stepping: the constructor compiles
// the topology into a thermal::CompiledRcModel (flat index arrays, cached
// stability bound, name -> index map) and every step/derivative/steady-state
// call routes through it, so the integrator hot loop performs no lookups and
// no heap allocation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "thermal/compiled_rc_model.hpp"

namespace dtpm::thermal {

/// One lumped thermal node.
struct ThermalNode {
  std::string name;
  double capacitance_j_per_k = 1.0;
  double initial_temp_c = 25.0;
  /// Fixed-temperature boundary node (ambient / furnace chamber).
  bool is_boundary = false;
};

/// Symmetric conductance between two nodes, in W/K.
struct ThermalEdge {
  std::size_t node_a = 0;
  std::size_t node_b = 0;
  double conductance_w_per_k = 0.0;
};

/// Lumped RC network with runtime-adjustable edge conductances (the fan
/// manipulates the case-to-ambient edge) and pinnable boundary temperatures
/// (the furnace manipulates ambient).
class RcNetwork {
 public:
  /// @throws std::invalid_argument on malformed topology (edge out of range,
  ///         non-positive capacitance or conductance, self-loop).
  RcNetwork(std::vector<ThermalNode> nodes, std::vector<ThermalEdge> edges);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  const ThermalNode& node(std::size_t i) const { return nodes_.at(i); }
  const ThermalEdge& edge(std::size_t i) const { return edges_.at(i); }

  /// Index lookup by node name against the map built at construction;
  /// throws if absent.
  std::size_t index_of(const std::string& name) const {
    return compiled_.index_of(name);
  }

  /// Current temperature of node i in Celsius.
  double temperature_c(std::size_t i) const { return temps_.at(i); }
  const std::vector<double>& temperatures_c() const { return temps_; }

  /// Overrides the temperature state (used by tests and by the furnace to
  /// equilibrate quickly).
  void set_temperature_c(std::size_t i, double t);
  void set_all_temperatures_c(double t);

  /// Re-pins a boundary node to a new fixed temperature.
  void set_boundary_temperature_c(std::size_t i, double t);

  /// Changes an edge conductance at runtime (fan speed changes). Writing an
  /// unchanged value is a no-op.
  void set_edge_conductance(std::size_t edge_index, double conductance_w_per_k);
  double edge_conductance(std::size_t edge_index) const;

  /// Advances the network by dt seconds with the given per-node power
  /// injection (W). Power injected into boundary nodes is ignored. dt is
  /// internally subdivided so the explicit integrator stays well inside its
  /// stability region for the stiffest node.
  /// @throws std::invalid_argument on a power vector size mismatch or
  ///         non-positive dt.
  void step(double dt_s, const std::vector<double>& power_w);

  /// Steady-state temperatures for a constant power vector, solved directly
  /// from G T = P with boundary conditions. Used by tests and by the furnace
  /// harness for fast equilibration.
  std::vector<double> steady_state(const std::vector<double>& power_w) const;

  /// The compiled form the step path runs on (read-only).
  const CompiledRcModel& compiled() const { return compiled_; }

  /// Mutable temperature state for external stepping engines: the LTI
  /// propagator advances the state out-of-band and writes the result back
  /// through this. Everyone else reads temperatures_c().
  std::vector<double>& temperatures_mut() { return temps_; }

 private:
  std::vector<ThermalNode> nodes_;
  std::vector<ThermalEdge> edges_;
  CompiledRcModel compiled_;
  std::vector<double> temps_;
};

}  // namespace dtpm::thermal
