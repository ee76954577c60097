// The plant stepping-engine knob: which integrator advances the RC thermal
// network inside Plant::advance. Both engines run the same physics; they
// differ in how the per-substep work is executed.
//
//   * propagator (the default): the exact LTI propagator
//     (thermal::PropagatorRcModel) -- one matvec per substep, on matrices
//     compiled once per (fan state, substep dt). Runs, sweeps, fleets and
//     calibration step on it.
//   * reference-rk4: the per-substep RK4 loop (RcNetwork::step), selected by
//     name. It is the propagator's oracle: the cross-engine tests check that
//     the two agree to floating-point rounding, and the golden traces that
//     name it pin it bit for bit.
//
// Lives in its own header (not sim/config.hpp) so the Plant layer can name
// the engine without pulling in the whole experiment-configuration surface.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace dtpm::sim {

enum class Engine {
  kReferenceRk4,  ///< per-substep RK4 loop, the propagator's oracle
  kPropagator,    ///< exact LTI propagator, one matvec per substep (default)
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
