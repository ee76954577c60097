// Fleet mode: sample N device profiles from distributions over platform x
// ambient x background load x scenario family x seed, stream them through
// the BatchRunner pool in waves (one Simulation per device, on the spec's
// engine -- propagator in the shipped example), and fold every run into a
// FleetAggregate -- no per-run traces, so a 100k-device fleet is a
// memory-flat streaming computation whose aggregates are reproducible from
// the spec's seed.
//
// Reproducibility: sample_fleet is a pure function of the spec (one
// util::Rng stream, consumed device by device in a fixed draw order), and
// run_fleet folds wave results in input order through the BatchRunner's
// bit-identical-to-serial contract -- so the aggregate JSON is identical
// across worker counts and across server restarts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/aggregator.hpp"
#include "sim/config.hpp"
#include "sim/scenario_catalog.hpp"

namespace dtpm::sim {
class RunPlan;
}  // namespace dtpm::sim

namespace dtpm::serve {

/// One weighted entry of a categorical fleet axis ("platforms", "families").
struct FleetWeight {
  std::string name;
  double weight = 1.0;
};

/// Inclusive uniform range of a continuous fleet axis.
struct FleetRange {
  double lo = 0.0;
  double hi = 0.0;
};

/// A declarative fleet: the template experiment plus the distributions the
/// sampler draws device profiles from. Serialized via sim/config_io
/// (fleet_from_json / to_json) and linted by the L7xx pass.
struct FleetSpec {
  /// Devices to sample. This member doubles as the document-kind
  /// discriminator: a JSON object with "device_count" lints as a fleet.
  std::uint64_t device_count = 1000;
  std::uint64_t seed = 1;
  /// Devices per BatchRunner wave; bounds per-wave memory.
  std::uint64_t wave_size = 256;

  /// Template config (policy, engine, intervals, durations). Sampling
  /// overrides platform, scenario, seed, ambient, and background per device.
  sim::ExperimentConfig base;

  /// Weighted platform mix; empty means the base config's platform only.
  std::vector<FleetWeight> platforms;
  /// Weighted scenario-family mix; empty means every standard family,
  /// equally weighted.
  std::vector<FleetWeight> families;

  /// Uniform ambient-temperature range, quantized to 0.25 C steps at
  /// sampling time so the number of distinct platform descriptors (and so
  /// floorplan templates) stays bounded. Degenerate lo == hi pins it.
  FleetRange ambient_c{25.0, 25.0};
  /// Uniform per-device background duty cycle (BackgroundParams::base_duty).
  FleetRange background_duty{0.10, 0.10};

  /// Generator knobs applied to every sampled scenario.
  double scenario_nominal_duration_s = 60.0;
  double scenario_intensity = 1.0;

  /// Keep per-run traces (the L702 blowup warning exists because this
  /// defeats the memory-flat design; off by default).
  bool retain_traces = false;
};

/// One sampled device, small enough to hold 100k of: configs are
/// materialized per wave, not up front.
struct DeviceProfile {
  std::uint64_t index = 0;
  std::string platform;
  std::string family;
  double ambient_c = 25.0;
  double background_duty = 0.10;
  std::uint64_t seed = 0;
};

/// Samples every device profile deterministically from spec.seed. Throws
/// std::invalid_argument on degenerate distributions (run_fleet lints
/// first, so server-submitted specs fail with diagnostics instead).
std::vector<DeviceProfile> sample_fleet(const FleetSpec& spec);

/// Turns profiles into runnable configs, caching the expensive per-device
/// invariants: one ambient-adjusted descriptor per (platform, ambient bin)
/// and one identified model per platform name, calibrated at the platform's
/// nominal registry descriptor -- a fleet models reality, where a device is
/// calibrated once and then deployed across ambient conditions.
class FleetMaterializer {
 public:
  explicit FleetMaterializer(const FleetSpec& spec);

  sim::ExperimentConfig config_for(const DeviceProfile& device);

  /// The shared identified model for runs on `platform_name`; null when the
  /// base config's policy does not need one.
  const sysid::IdentifiedPlatformModel* model_for(
      const std::string& platform_name);

 private:
  sim::PlatformPtr descriptor_for(const DeviceProfile& device);

  const FleetSpec& spec_;
  sim::ScenarioCatalog catalog_;
  bool needs_model_ = false;
  bool t_max_pinned_ = false;
  /// (platform name, ambient quantized to 0.25 C bins) -> adjusted descriptor.
  std::map<std::pair<std::string, long>, sim::PlatformPtr> descriptors_;
};

/// Per-wave progress snapshot handed to FleetRunOptions::on_wave.
struct FleetProgress {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  const FleetAggregate& aggregate;
};

struct FleetRunOptions {
  /// BatchRunner width; 0 picks hardware concurrency.
  unsigned workers = 0;
  /// Caller-owned warm cache (the serve executor's per-thread plan): grown
  /// wave to wave and reused across fleets, so repeat platforms skip
  /// floorplan compilation. Null builds a plan local to this call.
  sim::RunPlan* plan = nullptr;
  /// Called after each folded wave (progress streaming). May be empty.
  std::function<void(const FleetProgress&)> on_wave;
  /// Polled between waves; returning true stops after the current wave and
  /// finalizes the partial aggregate (graceful drain / job cancel).
  std::function<bool()> should_stop;
};

struct FleetRunResult {
  FleetAggregate aggregate;
  std::uint64_t devices_run = 0;  ///< slots folded (== sampled unless stopped)
  bool stopped_early = false;
};

/// Samples, waves, and folds one fleet. Throws std::invalid_argument (with
/// the first lint finding) when the spec fails the L7xx semantic pass.
FleetRunResult run_fleet(const FleetSpec& spec,
                         const FleetRunOptions& options = {});

/// Smoke caps for CI-sized fleet jobs: base durations capped via
/// sim::apply_smoke_caps, scenario length capped, traces off.
void apply_smoke_caps(FleetSpec& spec);

}  // namespace dtpm::serve
