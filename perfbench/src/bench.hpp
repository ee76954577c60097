// The benchmark's shared vocabulary: command-line options, the report every
// workload fills (operations attempted/failed, named metrics with units),
// and the pieces several workloads reuse -- the fleet pipeline, the serve
// session, and the per-layer probes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/fleet.hpp"
#include "sim/config.hpp"
#include "sim/run_result.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace and layer table.
  std::string out_dir = ".bench_out";
};

/// Seconds of all-core spinning before anything is timed.
inline constexpr double kWarmSeconds = 3.0;
/// Seconds spent repeating the set-up; setup_s is the median repetition.
/// A fixed time, not a fixed count: a set-up of milliseconds then gets
/// hundreds of repetitions and one of a few hundred ms still several.
inline constexpr double kSetupSeconds = 3.0;
/// Set-up repetitions at least, however long each takes.
inline constexpr std::size_t kMinSetupRepeats = 5;

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Records a check. A failing check marks the run incorrect and charges
  /// `ops` operations as failed.
  void check(bool ok, const std::string& what, std::uint64_t ops = 1);

  void attempt(std::uint64_t ops) { attempted_ += ops; }

  /// A line printed before the final JSON object (digests, layer table).
  void note(const std::string& line);

  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  std::string result_line() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// --- shared helpers (common.cpp) ---------------------------------------------

/// The registry's start-up work, in ms: registering every registry platform
/// into a fresh PlatformRegistry (validation + stability analysis each), as
/// the first registry access does.
double registry_work_ms();

/// Calls `setup_s()` (which returns the seconds it took) for kSetupSeconds,
/// and at least kMinSetupRepeats times; returns every value.
template <class Setup>
std::vector<double> repeat_setup(Setup&& setup_s) {
  std::vector<double> seconds;
  const std::int64_t deadline = now_ns() + std::int64_t(kSetupSeconds * 1e9);
  while (seconds.size() < kMinSetupRepeats || now_ns() < deadline) {
    seconds.push_back(setup_s());
  }
  return seconds;
}

/// Median set-up cost over repeat_setup(), each repetition the registry
/// work followed by `workload_setup_s()` (which returns its own seconds).
struct SetupTimes {
  double setup_s = 0.0;      ///< median of registry + workload set-up
  double registry_ms = 0.0;  ///< median of the registry part alone
};
template <class WorkloadSetup>
SetupTimes time_setup(WorkloadSetup&& workload_setup_s) {
  std::vector<double> registry;
  const std::vector<double> totals = repeat_setup([&] {
    registry.push_back(registry_work_ms());
    return registry.back() / 1e3 + workload_setup_s();
  });
  return {median(totals), median(registry)};
}

/// Registry platform names, sorted.
std::vector<std::string> platform_names();

/// The four §6.2 policies.
const std::vector<std::string>& paper_policies();

/// The identified model `config` needs (process-wide calibration cache), or
/// null when its policy needs none.
const dtpm::sysid::IdentifiedPlatformModel* model_for(
    const dtpm::sim::ExperimentConfig& config);

/// Everything a single-run result reports except wall time, as JSON, so two
/// runs compare exactly.
dtpm::util::JsonValue summary_without_wall(const dtpm::sim::RunResult& result);
dtpm::util::JsonValue without_wall(dtpm::util::JsonValue summary);

/// Notes every timed pass's rate and their spread (diagnostics only).
void note_pass_rates(const std::vector<double>& rates, Report& report);

// --- fleet pipeline (fleet_smoke.cpp) ------------------------------------------

/// examples/configs/fleet_smoke.json as a document (comments stripped).
dtpm::util::JsonValue fleet_smoke_document();

/// The fleet-smoke spec at `seed` with smoke caps applied.
dtpm::serve::FleetSpec fleet_smoke_spec(std::uint64_t seed,
                                        std::uint64_t device_count = 0);

/// What a traced fleet run produced; several runs may be summed into one
/// (`fleets` counts them).
struct FleetTrace {
  std::string aggregate_json;
  std::uint64_t fleets = 1;
  std::uint64_t devices = 0;
  std::uint64_t failed = 0;
  std::uint64_t plant_substeps = 0;
  std::uint64_t control_steps = 0;
  std::uint64_t distinct_descriptors = 0;
  double wall_s = 0.0;
};

/// run_fleet rebuilt from its public parts (sample_fleet, FleetMaterializer,
/// RunPlan, BatchRunner, FleetAggregate) with a span around each layer call.
FleetTrace traced_fleet(const dtpm::serve::FleetSpec& spec, unsigned workers,
                        Tracer& tracer);

/// Per-layer fleet metrics from a traced_fleet run (wave times, sampling,
/// materialization, folding, JSON writing, scenario generation).
void report_fleet_layers(const dtpm::serve::FleetSpec& spec,
                         const FleetTrace& fleet, Tracer& tracer,
                         Report& report);

// --- serve session (serve_mixed.cpp) -------------------------------------------

/// A short traced serve session (fixed job count) for the serve-protocol
/// layer metrics of workloads that do not go through the server.
void secondary_serve_layers(std::uint64_t seed, Tracer& tracer, Report& report);

// --- layer probes (layers.cpp) -------------------------------------------------

/// Per-layer probes over `configs`, a sample of the workload's own runs:
/// thermal substeps per engine, split-phase Simulation stepping, phase
/// shares, policy replays (core, governors), calibration, quantile sketch.
void probe_layers(const std::vector<dtpm::sim::ExperimentConfig>& configs,
                  Tracer& tracer, Report& report);

/// Writes the Chrome trace and the layer table under opts.out_dir and
/// notes the table.
void write_trace(const Options& opts, const Tracer& tracer, Report& report);

// --- workloads -------------------------------------------------------------------

Report run_fleet_smoke(const Options& opts);
Report run_sweep_paper(const Options& opts);
Report run_serve_mixed(const Options& opts);

}  // namespace perfbench
