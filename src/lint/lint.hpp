// Static analysis of the data layer: everything `dtpm lint` knows how to
// check, exposed as composable passes over parsed artifacts. Nothing here
// executes a simulation -- the passes inspect descriptors, configs, and
// sweep documents and report findings into a util::DiagnosticSink.
//
// Layering: sim/config_io's collecting parsers produce the parse-level
// diagnostics (codes L001-L006); the passes below add the semantic layers
// on top. lint_document is the driver the CLI uses -- it detects the
// document kind (experiment, standalone platform, sweep grid), runs the
// collecting parse, and runs the semantic passes only when the parse
// produced no errors (semantics over a knowingly broken value would only
// bury the parse findings under follow-ons).
//
// Diagnostic code blocks (stable; documented in README "Linting configs"):
//   L0xx  parse: syntax, types, ranges, unknown fields/names, structure
//   L1xx  floorplan graph: connectivity, roles, duplicate/self edges, fan
//   L2xx  OPP tables: monotonicity, duplicates, cluster mismatch
//   L3xx  cross-field: abort vs t_max, sensor noise, interval divisibility,
//         recommended t_max, trace retention (L304 is retired, never reused)
//   L4xx  policy params vs registry-declared schemas
//   L5xx  sweep grids: empty axes, duplicates, expansion size
//   L6xx  deep (opt-in): equilibrium/stability pre-check
//   L7xx  fleet specs: degenerate distributions, trace-retention blowup,
//         unknown axis names, ambient vs thermal limit, wave sizing
#pragma once

#include <string>

#include "serve/fleet.hpp"
#include "sim/config_io.hpp"
#include "util/diagnostics.hpp"

namespace dtpm::lint {

struct LintOptions {
  /// Run the expensive equilibrium/stability pre-check
  /// (analysis::validate_platform_stability) on every linted platform.
  bool deep = false;
};

// --- Semantic passes over typed artifacts ------------------------------------
// Callable directly on C++-built values (what `dtpm lint --platforms` does
// for the registry); lint_document routes parsed JSON through them.

/// Floorplan graph + OPP-table + platform cross-field checks (L1xx, L2xx,
/// L302), plus the deep stability pass (L601) when options.deep is set.
void lint_platform(const sim::PlatformDescriptor& descriptor,
                   const std::string& path, util::DiagnosticSink& sink,
                   const LintOptions& options = {});

/// Cross-field experiment checks (L3xx) and policy-param schema validation
/// (L4xx); also lints the config's resolved platform.
void lint_experiment(const sim::ExperimentConfig& config,
                     const std::string& path, util::DiagnosticSink& sink,
                     const LintOptions& options = {});

/// Sweep-axis checks (L5xx) and the base-experiment passes. `json` is the
/// source document when available (detects explicitly-empty axis arrays,
/// which the parsed spec cannot distinguish from absent ones); pass nullptr
/// for C++-built specs.
void lint_sweep(const sim::SweepSpec& spec, const util::JsonValue* json,
                const std::string& path, util::DiagnosticSink& sink,
                const LintOptions& options = {});

/// Fleet-spec checks (L7xx) and the experiment passes over the base config.
/// `json` plays the same role as in lint_sweep (explicitly-empty axis
/// detection); pass nullptr for C++-built specs.
void lint_fleet(const serve::FleetSpec& spec, const util::JsonValue* json,
                const std::string& path, util::DiagnosticSink& sink,
                const LintOptions& options = {});

// --- Document drivers --------------------------------------------------------

/// Lints one parsed JSON document: detects its kind (sweep grid when any
/// sweep-only member is present, standalone platform when "floorplan" is,
/// experiment otherwise), runs the collecting parse, then the semantic
/// passes on a parse-clean value.
void lint_document(const util::JsonValue& json, const std::string& path,
                   util::DiagnosticSink& sink, const LintOptions& options = {});

/// Reads and lints one file; file-access and JSON syntax errors become L001.
void lint_file(const std::string& file_path, util::DiagnosticSink& sink,
               const LintOptions& options = {});

}  // namespace dtpm::lint
