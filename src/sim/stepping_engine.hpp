// The plant stepping-engine knob: which integrator advances the RC thermal
// network inside Plant::advance. Both engines run the same physics; they
// differ in how the per-substep work is executed.
//
//   * reference-rk4: the per-substep RK4 loop (RcNetwork::step). The
//     bit-exact baseline that the golden traces pin.
//   * propagator: the exact LTI propagator (thermal::PropagatorRcModel) --
//     one matvec per substep, on matrices compiled once per (fan state,
//     substep dt). Tracks the reference to floating-point rounding. Fleets
//     and sweeps step one Simulation per run on it through the BatchRunner
//     pool.
//
// Lives in its own header (not sim/config.hpp) so the Plant layer can name
// the engine without pulling in the whole experiment-configuration surface.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace dtpm::sim {

enum class Engine {
  kReferenceRk4,  ///< per-substep RK4 loop (golden-trace baseline)
  kPropagator,    ///< exact LTI propagator, one matvec per substep
};

/// Selection name of the enumerator ("reference-rk4", "propagator").
const char* to_string(Engine e);

/// Inverse of to_string; throws std::invalid_argument (with the valid names
/// and a nearest-match suggestion) on an unknown name.
Engine parse_engine(const std::string& name);

/// Like parse_engine, but returns nullopt instead of throwing.
std::optional<Engine> try_parse_engine(const std::string& name);

/// The selectable engine names, in enumerator order.
const std::vector<std::string>& engine_names();

}  // namespace dtpm::sim
