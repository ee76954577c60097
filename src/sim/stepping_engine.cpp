#include "sim/stepping_engine.hpp"

#include <stdexcept>

#include "util/names.hpp"

namespace dtpm::sim {

const char* to_string(Engine e) {
  switch (e) {
    case Engine::kReferenceRk4:
      return "reference-rk4";
    case Engine::kPropagator:
      return "propagator";
  }
  return "?";
}

const std::vector<std::string>& engine_names() {
  static const std::vector<std::string> names = {
      to_string(Engine::kReferenceRk4), to_string(Engine::kPropagator)};
  return names;
}

std::optional<Engine> try_parse_engine(const std::string& name) {
  for (Engine e : {Engine::kReferenceRk4, Engine::kPropagator}) {
    if (name == to_string(e)) return e;
  }
  return std::nullopt;
}

Engine parse_engine(const std::string& name) {
  const std::optional<Engine> parsed = try_parse_engine(name);
  if (!parsed.has_value()) {
    throw std::invalid_argument(
        "parse_engine: " +
        util::unknown_name_message("engine", name, engine_names()));
  }
  return *parsed;
}

}  // namespace dtpm::sim
