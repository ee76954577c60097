// JSON round-trip for FleetSpec, on the same util::diagnostics engine as
// every other config parser (sim/config_io.hpp): a throwing mode for
// programmatic use and a collecting mode that reports every problem in one
// pass -- which is what both `dtpm lint` and the server's submit-time
// validation build on. Implemented in sim/config_io.cpp, where FleetSpec's
// field table sits with every other struct's: its row order is the wire
// order, and the weighted axes and {lo, hi} ranges are hand-written codecs
// plugged into that table.
#pragma once

#include <string>

#include "serve/fleet.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"

namespace dtpm::serve {

/// Lossless emission: every member is written (the "base" experiment via
/// sim::to_json), so a spec round-trips exactly.
util::JsonValue to_json(const FleetSpec& spec);

/// Throwing mode: the first validation failure raises sim::ConfigError with
/// its "$.path".
FleetSpec fleet_from_json(const util::JsonValue& json,
                          const std::string& path = "$");

/// Collecting mode: reports every problem into `sink`, returns best-effort
/// (only runnable when the sink stayed error-free).
FleetSpec fleet_from_json(const util::JsonValue& json, const std::string& path,
                          util::DiagnosticSink& sink);

/// Parses a `dtpm serve` / `dtpm fleet` spec file.
FleetSpec load_fleet_spec(const std::string& file_path);

}  // namespace dtpm::serve
