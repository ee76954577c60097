// Declarative experiment definitions: JSON round-trip for ExperimentConfig,
// DtpmParams, inline workload::Benchmark descriptions, and sweep documents
// (flat grids and scenario-catalog selections). This is what makes
// experiments *data* instead of recompiled C++ -- the `dtpm` CLI feeds these
// loaders, and anything registered in governors::PolicyRegistry is
// selectable by name from a config file.
//
// Every parser runs on the util::diagnostics engine and comes in two modes:
//
//   * Throwing (the legacy default, no sink argument): the first validation
//     failure throws ConfigError carrying a JSON-pointer-style path and, for
//     name lookups, the sorted valid names plus a nearest-match suggestion:
//
//       $.policies[2]: unknown policy 'dtmp', did you mean 'dtpm'?
//           (valid: default+fan, dtpm, no-fan, reactive)
//
//   * Collecting (the overloads taking a util::DiagnosticSink&): every
//     problem in the document is reported into the sink in one pass --
//     parsing recovers at member/element/section boundaries instead of
//     stopping -- and a best-effort value is returned. This is what
//     `dtpm lint` builds on. When the sink records no errors the returned
//     value is identical to the throwing parse; when it does, the value is
//     partial and should not be executed.
//
// The throwing mode is a thin wrapper over the collecting machinery (a
// ThrowingSink turns the first error into the legacy ConfigError), so the
// two modes cannot drift apart.
//
// Every config struct is described once, by a field table in
// config_io.cpp (fields<T>()): one row per member giving its JSON key, the
// member, its kind and its range. to_json and the parsers both walk those
// rows, so table order is the wire order -- the key order to_json writes
// and the order diagnostics come out in. Adding a member is one new row.
// Members whose meaning spans several fields (the scenario shape, a
// platform given by name or inline, policy_params, floorplan node
// references, sweep axes) are hand-written beside the tables.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/batch.hpp"
#include "sim/config.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"

namespace dtpm::sim {

/// Config validation failure, pinned to a document path like "$.dtpm.t_max_c"
/// or "$.policies[2]".
class ConfigError : public std::runtime_error {
 public:
  ConfigError(const std::string& path, const std::string& detail)
      : std::runtime_error(path + ": " + detail),
        path_(path),
        detail_(detail) {}

  const std::string& path() const { return path_; }
  const std::string& detail() const { return detail_; }

 private:
  std::string path_;
  std::string detail_;
};

/// DiagnosticSink preserving the legacy parse contract: the first
/// error-severity diagnostic becomes ConfigError(path, message) -- the exact
/// strings the pre-sink parsers threw. Warnings and notes pass through
/// silently (the throwing API has nowhere to put them).
class ThrowingSink : public util::DiagnosticSink {
 protected:
  void on_report(util::Diagnostic diagnostic) override {
    if (diagnostic.severity == util::Severity::kError) {
      throw ConfigError(diagnostic.path, diagnostic.message);
    }
  }
};

// --- DtpmParams --------------------------------------------------------------
util::JsonValue to_json(const core::DtpmParams& params);
/// Members absent from the document keep their value in `base` -- which is
/// how a platform's default t_max survives a partial "dtpm" override.
core::DtpmParams dtpm_params_from_json(const util::JsonValue& json,
                                       const std::string& path = "$",
                                       const core::DtpmParams& base = {});
/// Collecting mode: reports every problem into `sink`, returns best-effort.
core::DtpmParams dtpm_params_from_json(const util::JsonValue& json,
                                       const std::string& path,
                                       const core::DtpmParams& base,
                                       util::DiagnosticSink& sink);

// --- workload::Benchmark (the inline-scenario path) --------------------------
util::JsonValue to_json(const workload::Benchmark& benchmark);
workload::Benchmark benchmark_from_json(const util::JsonValue& json,
                                        const std::string& path = "$");
workload::Benchmark benchmark_from_json(const util::JsonValue& json,
                                        const std::string& path,
                                        util::DiagnosticSink& sink);

// --- workload::ScenarioParams ------------------------------------------------
util::JsonValue to_json(const workload::ScenarioParams& params);
workload::ScenarioParams scenario_params_from_json(
    const util::JsonValue& json, const std::string& path = "$");
workload::ScenarioParams scenario_params_from_json(const util::JsonValue& json,
                                                   const std::string& path,
                                                   util::DiagnosticSink& sink);

// --- sim::PlatformDescriptor -------------------------------------------------
// The platform-as-data path: a descriptor serializes completely (floorplan
// topology with named nodes/edges and role mapping, OPP tables, power/perf
// coefficients, sensor and fan models), so a custom SoC ships as a JSON
// file instead of recompiled C++. Parsing starts from the default (Odroid)
// descriptor and overrides the members present; a "floorplan" member, when
// given, must be complete (nodes, edges, and the role mapping). Validation
// failures carry exact paths like "$.platform.floorplan.edges[3].a".
util::JsonValue to_json(const PlatformDescriptor& descriptor);
PlatformDescriptor platform_from_json(const util::JsonValue& json,
                                      const std::string& path = "$");
PlatformDescriptor platform_from_json(const util::JsonValue& json,
                                      const std::string& path,
                                      util::DiagnosticSink& sink);

/// Parses a standalone platform file (e.g. examples/configs/
/// custom_platform.json) and validates the result.
PlatformDescriptor load_platform(const std::string& file_path);

// --- ExperimentConfig --------------------------------------------------------
// The "scenario" member supports two shapes:
//   {"family": "bursty", "seed": 7, "params": {...}}   regenerated through
//       the standard ScenarioCatalog (deterministic, so configs stay small)
//   {"benchmark": {...full benchmark description...}}   fully inline
// to_json always emits the fully-inline shape (a generated Benchmark does
// not remember its family), so every config round-trips losslessly.
util::JsonValue to_json(const ExperimentConfig& config);
ExperimentConfig experiment_from_json(const util::JsonValue& json,
                                      const std::string& path = "$");
ExperimentConfig experiment_from_json(const util::JsonValue& json,
                                      const std::string& path,
                                      util::DiagnosticSink& sink);

/// Parses a `dtpm run` config file; JSON syntax errors carry line/column,
/// validation errors carry their $.path. A document that classify_document
/// does not call an experiment is rejected with a pointer to the right
/// subcommand.
ExperimentConfig load_experiment_config(const std::string& file_path);

// --- Document kinds ----------------------------------------------------------

enum class DocumentKind { kFleet, kSweep, kPlatform, kExperiment };

/// What a config document is, by its members, checked in this order: a
/// fleet spec has "device_count"; a sweep grid has "base", a plural axis
/// ("benchmarks", "platforms", "policies", "seeds"), "dtpm_grid" or
/// "scenarios"; a standalone platform has "floorplan"; anything else
/// (including a non-object) is an experiment. `dtpm lint` and
/// load_experiment_config both classify through this.
DocumentKind classify_document(const util::JsonValue& json);

// --- Sweep documents ---------------------------------------------------------

/// A declarative sweep: a base experiment plus the axes to expand. Either a
/// flat benchmark grid (mirroring sim::SweepGrid) or a scenario-catalog
/// selection ("scenarios" member) -- not both in one document.
struct SweepSpec {
  ExperimentConfig base;

  // Grid axes (empty = inherit from base, mirroring sim::sweep()).
  std::vector<std::string> benchmarks;
  std::vector<std::string> platforms;  ///< PlatformRegistry names
  std::vector<std::string> policies;   ///< registry names
  std::vector<std::uint64_t> seeds;
  std::vector<core::DtpmParams> dtpm_grid;

  // Scenario-catalog selection.
  bool has_scenarios = false;
  std::vector<std::string> families;  ///< empty = every standard family
  std::vector<std::uint64_t> scenario_seeds;
  workload::ScenarioParams scenario_params;

  /// Expands to concrete configs: SweepGrid/sweep() for the flat grid,
  /// ScenarioCatalog::standard(scenario_params).expand() for selections.
  std::vector<ExperimentConfig> expand() const;
};

util::JsonValue to_json(const SweepSpec& spec);
SweepSpec sweep_from_json(const util::JsonValue& json,
                          const std::string& path = "$");
SweepSpec sweep_from_json(const util::JsonValue& json, const std::string& path,
                          util::DiagnosticSink& sink);

/// Parses a `dtpm sweep` grid file.
SweepSpec load_sweep_spec(const std::string& file_path);

}  // namespace dtpm::sim
