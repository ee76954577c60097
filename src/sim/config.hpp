// Experiment configuration: which benchmark, under which thermal policy,
// reproducing the four configurations of §6.2 -- and, through the
// string-keyed governors::PolicyRegistry, any policy registered at startup.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dtpm_governor.hpp"
#include "sim/platform.hpp"
#include "sim/stepping_engine.hpp"
#include "workload/background.hpp"
#include "workload/benchmark.hpp"

namespace dtpm::sim {

struct ExperimentConfig {
  std::string benchmark = "basicmath";
  /// Inline workload: when set, the simulation runs this benchmark (validated
  /// at Simulation construction) instead of looking `benchmark` up in the
  /// Table-6.4 suite, and `benchmark` only labels the run. Shared-const so
  /// configs stay cheap to copy across BatchRunner workers; this is how the
  /// ScenarioCatalog feeds generated scenarios into batches.
  std::shared_ptr<const workload::Benchmark> scenario;
  /// Registry name of the thermal policy to run: one of the four §6.2
  /// configurations ("default+fan", "no-fan", "reactive", "dtpm") or any
  /// policy registered at startup.
  std::string policy_name = "default+fan";
  /// Free-form numeric knobs handed to the policy factory
  /// (governors::PolicyContext::params); built-in policies ignore it.
  std::map<std::string, double> policy_params;
  /// Registry name of the default governor; empty means "ondemand".
  std::string governor_name;
  /// The platform the experiment runs on: a shared descriptor from the
  /// PlatformRegistry ("platform": "dragon" in JSON) or a user-built one.
  /// Never null; defaults to the registry's odroid-xu-e. Select via
  /// set_platform() so dtpm.t_max_c follows the platform.
  PlatformPtr platform = default_platform();
  core::DtpmParams dtpm{};  ///< used when the resolved policy is "dtpm"

  /// Explicit ambient background-load parameters. Unset (the default), the
  /// simulation derives them from the benchmark exactly as it always has
  /// (paper defaults, heavy matmul for games/video), so existing configs and
  /// golden traces are untouched. The fleet sampler sets this to give every
  /// simulated device its own background duty cycle.
  std::optional<workload::BackgroundParams> background;

  double control_interval_s = 0.1;  ///< 100 ms driver period (§6.2)
  double plant_substep_s = 0.01;
  /// Plant stepping engine (sim/stepping_engine.hpp). The default
  /// reference-rk4 is bit-exact with the golden traces; `propagator` trades
  /// that for throughput (bounded error, documented in the README's
  /// Performance section).
  Engine engine = Engine::kReferenceRk4;
  /// Settling time before the benchmark starts and recording begins. A
  /// moderate warm-up load runs during this window so traces start from the
  /// warm platform visible in the paper's figures (~50 C).
  double warmup_s = 20.0;
  double warmup_activity = 0.65;  ///< CPU activity of the warm-up thread
  double max_sim_time_s = 900.0;
  std::uint64_t seed = 1;

  bool record_trace = true;
  /// Per-phase cycle accounting (util/phase.hpp): when true, every control
  /// interval stamps sensor/policy/schedule/plant tick deltas into
  /// RunResult::phase_cycles. The stamps are TSC reads -- cheap, but not
  /// free -- so the default keeps the hot path unstamped; perfbench's traced
  /// pass runs a second, profiled copy of each sampled run to report its
  /// sim.phase_* shares, which the CI perf gate bounds.
  bool profile_phases = false;
  /// Observe-only prediction validation (§6.3.1): log T[k+h] predictions and
  /// compare them against later measurements. Requires an identified model.
  bool observe_predictions = false;
  unsigned observe_horizon_steps = 10;
};

/// Plant substeps per control interval: control_interval_s over
/// plant_substep_s, rounded, at least one. Each substep lasts
/// control_interval_s / plant_substeps(config).
int plant_substeps(const ExperimentConfig& config);
int plant_substeps(double control_interval_s, double plant_substep_s);

/// The default-governor registry name ("ondemand" when unset).
std::string resolved_governor_name(const ExperimentConfig& config);

/// The descriptor the plant is built from: `config.platform`. Throws
/// std::invalid_argument when a caller has nulled the (public) field.
PlatformPtr resolved_platform(const ExperimentConfig& config);

/// The platform name for labels/summaries.
std::string resolved_platform_name(const ExperimentConfig& config);

/// Whether running `config` requires the identified platform model (the
/// "dtpm" policy or observe-only prediction validation). Shared by the CLI
/// and the BatchRunner's per-platform calibration fallback.
bool needs_identified_model(const ExperimentConfig& config);

/// Selects a platform: by registry name or as an explicit descriptor.
/// Adopts the platform's recommended thermal constraint as dtpm.t_max_c
/// (set config.dtpm afterwards to override).
void set_platform(ExperimentConfig& config, const std::string& name);
void set_platform(ExperimentConfig& config, PlatformPtr platform);

/// Selects a policy by registry name (assigns policy_name).
void set_policy(ExperimentConfig& config, const std::string& name);

/// Caps simulated durations for CI-sized smoke runs and disables traces /
/// prediction observation so artifact sizes stay bounded. One definition
/// shared by the CLI's --smoke flag and the serve layer's smoke jobs.
void apply_smoke_caps(ExperimentConfig& config);

}  // namespace dtpm::sim
