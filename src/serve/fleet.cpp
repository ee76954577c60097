#include "serve/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/batch.hpp"
#include "sim/calibration.hpp"
#include "sim/platform_registry.hpp"
#include "sim/run_plan.hpp"
#include "util/names.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

namespace dtpm::serve {

namespace {

std::vector<std::string> standard_family_names() {
  std::vector<std::string> names;
  for (workload::ScenarioFamily f : workload::all_scenario_families()) {
    names.emplace_back(workload::to_string(f));
  }
  return names;
}

/// The categorical axes after defaulting: platforms fall back to the base
/// config's platform, families to every standard family.
std::vector<FleetWeight> effective_platforms(const FleetSpec& spec) {
  if (!spec.platforms.empty()) return spec.platforms;
  return {{sim::resolved_platform_name(spec.base), 1.0}};
}

std::vector<FleetWeight> effective_families(const FleetSpec& spec) {
  if (!spec.families.empty()) return spec.families;
  std::vector<FleetWeight> families;
  for (std::string& name : standard_family_names()) {
    families.push_back({std::move(name), 1.0});
  }
  return families;
}

double total_weight(const std::vector<FleetWeight>& entries) {
  double total = 0.0;
  for (const FleetWeight& e : entries) total += e.weight;
  return total;
}

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("fleet: " + message);
}

/// Structural validation mirroring the L7xx lint pass; the server lints the
/// JSON document (with paths and codes) before a spec ever gets here, so
/// these throws are the programmatic-API backstop. Returns `spec`.
const FleetSpec& validated_distributions(const FleetSpec& spec) {
  if (spec.device_count == 0) fail("device_count must be positive");
  if (spec.wave_size == 0) fail("wave_size must be positive");
  for (const auto* axis : {&spec.platforms, &spec.families}) {
    for (const FleetWeight& e : *axis) {
      if (e.weight <= 0.0) {
        fail("weight of '" + e.name + "' must be positive");
      }
    }
  }
  const std::vector<FleetWeight> platforms = effective_platforms(spec);
  const std::vector<FleetWeight> families = effective_families(spec);
  if (total_weight(platforms) <= 0.0) fail("platform weights sum to zero");
  if (total_weight(families) <= 0.0) fail("family weights sum to zero");
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  for (const FleetWeight& e : platforms) {
    if (!registry.contains(e.name)) {
      fail(util::unknown_name_message("platform", e.name, registry.names()));
    }
  }
  const std::vector<std::string> known = standard_family_names();
  for (const FleetWeight& e : families) {
    if (std::find(known.begin(), known.end(), e.name) == known.end()) {
      fail(util::unknown_name_message("scenario family", e.name, known));
    }
  }
  if (spec.ambient_c.hi < spec.ambient_c.lo) {
    fail("ambient_c range is inverted (hi < lo)");
  }
  if (spec.background_duty.hi < spec.background_duty.lo) {
    fail("background_duty range is inverted (hi < lo)");
  }
  if (spec.background_duty.lo < 0.0 || spec.background_duty.hi > 1.0) {
    fail("background_duty must lie within [0, 1]");
  }
  if (spec.scenario_nominal_duration_s <= 0.0) {
    fail("scenario_nominal_duration_s must be positive");
  }
  if (spec.scenario_intensity <= 0.0) {
    fail("scenario_intensity must be positive");
  }
  return spec;
}

/// One cumulative-weight draw. `u` must come from rng.uniform(0, total);
/// walking the prefix sums keeps the pick a pure function of the draw, so
/// the sampled fleet never depends on container iteration quirks.
const std::string& pick_weighted(const std::vector<FleetWeight>& entries,
                                 double u) {
  double cumulative = 0.0;
  for (const FleetWeight& e : entries) {
    cumulative += e.weight;
    if (u < cumulative) return e.name;
  }
  return entries.back().name;  // u == total (or fp residue): last bucket
}

/// Quantize to 0.25 C steps inside [lo, hi] so the fleet materializes a
/// bounded number of distinct ambient descriptors (and so floorplan
/// templates) no matter how many devices sample the range.
double quantize_ambient(double ambient, const FleetRange& range) {
  const double q = std::round(ambient * 4.0) / 4.0;
  return std::min(std::max(q, range.lo), range.hi);
}

long ambient_bin(double ambient_c) {
  return std::lround(ambient_c * 4.0);
}

}  // namespace

FleetSampler::FleetSampler(const FleetSpec& spec)
    : platforms_(effective_platforms(validated_distributions(spec))),
      families_(effective_families(spec)),
      platform_total_(total_weight(platforms_)),
      family_total_(total_weight(families_)),
      ambient_c_(spec.ambient_c),
      background_duty_(spec.background_duty),
      device_count_(spec.device_count),
      rng_(spec.seed) {}

bool FleetSampler::next(DeviceProfile& device) {
  if (drawn_ == device_count_) return false;
  // Fixed draw order per device -- platform, family, ambient, duty, seed --
  // so the fleet is a pure function of (spec fields, spec.seed). All five
  // draws come before the string copies, which the engine state then need
  // not be reloaded around.
  const double u_platform = rng_.uniform(0.0, platform_total_);
  const double u_family = rng_.uniform(0.0, family_total_);
  const double ambient_c = rng_.uniform(ambient_c_.lo, ambient_c_.hi);
  const double duty = rng_.uniform(background_duty_.lo, background_duty_.hi);
  const std::uint64_t seed = rng_.engine()();
  device.index = drawn_++;
  device.platform = pick_weighted(platforms_, u_platform);
  device.family = pick_weighted(families_, u_family);
  device.ambient_c = quantize_ambient(ambient_c, ambient_c_);
  device.background_duty = duty;
  device.seed = seed;
  return true;
}

std::vector<DeviceProfile> sample_fleet(const FleetSpec& spec) {
  FleetSampler sampler(spec);
  std::vector<DeviceProfile> profiles;
  profiles.reserve(std::size_t(spec.device_count));
  for (DeviceProfile device; sampler.next(device);) {
    profiles.push_back(std::move(device));
  }
  return profiles;
}

FleetMaterializer::FleetMaterializer(const FleetSpec& spec)
    : spec_(spec),
      catalog_(sim::ScenarioCatalog::standard([&spec] {
        workload::ScenarioParams params;
        params.nominal_duration_s = spec.scenario_nominal_duration_s;
        params.intensity = spec.scenario_intensity;
        return params;
      }())),
      needs_model_(sim::needs_identified_model(spec.base)),
      // Heuristic for "the base config pins its own thermal constraint": a
      // t_max that differs from its platform's default was set on purpose
      // and survives per-device platform selection.
      t_max_pinned_(spec.base.dtpm.t_max_c !=
                    sim::resolved_platform(spec.base)->default_t_max_c) {}

sim::PlatformPtr FleetMaterializer::descriptor_for(
    const DeviceProfile& device) {
  const std::pair<std::string, long> key{device.platform,
                                         ambient_bin(device.ambient_c)};
  auto it = descriptors_.find(key);
  if (it != descriptors_.end()) return it->second;

  const sim::PlatformPtr nominal =
      sim::PlatformRegistry::instance().get(device.platform);
  const double nominal_ambient = nominal->floorplan.ambient_temp_c();
  const double delta = device.ambient_c - nominal_ambient;
  sim::PlatformPtr resolved = nominal;
  if (delta != 0.0) {
    // Clone the registry descriptor into this ambient: the boundary node
    // pins to the sampled ambient and every other node's warm-start initial
    // temperature shifts by the same delta (a device soaked at 35 C ambient
    // idles 10 C hotter throughout). Name and physics are untouched, so
    // labels and calibration still identify the platform.
    auto shifted = std::make_shared<sim::PlatformDescriptor>(*nominal);
    for (thermal::FloorplanNodeSpec& node : shifted->floorplan.nodes) {
      if (node.is_boundary) {
        node.initial_temp_c = device.ambient_c;
      } else {
        node.initial_temp_c += delta;
      }
    }
    resolved = std::move(shifted);
  }
  descriptors_.emplace(key, resolved);
  return resolved;
}

const sysid::IdentifiedPlatformModel* FleetMaterializer::model_for(
    const std::string& platform_name) {
  if (!needs_model_) return nullptr;
  // Calibrate once per platform NAME at its nominal registry descriptor and
  // share that model across every ambient variant -- mirroring reality
  // (a device model is identified once, then deployed across conditions)
  // and keeping the process-wide calibration cache at one entry per
  // platform instead of one per sampled ambient.
  return &sim::platform_calibration(
              sim::PlatformRegistry::instance().get(platform_name))
              .model;
}

sim::ExperimentConfig FleetMaterializer::config_for(
    const DeviceProfile& device) {
  return config_for(device, descriptor_for(device));
}

sim::ExperimentConfig FleetMaterializer::config_for(
    const DeviceProfile& device, const sim::PlatformPtr& descriptor) const {
  sim::ExperimentConfig config = spec_.base;
  const double base_t_max = spec_.base.dtpm.t_max_c;
  sim::set_platform(config, descriptor);
  if (t_max_pinned_) config.dtpm.t_max_c = base_t_max;

  config.scenario = std::make_shared<const workload::Benchmark>(
      catalog_.make(device.family, device.seed));
  config.benchmark = device.family + "#s" + std::to_string(device.seed);
  config.seed = device.seed;
  config.record_trace = spec_.retain_traces;

  workload::BackgroundParams background;
  background.base_duty = device.background_duty;
  background.heavy_load = workload::wants_heavy_background(*config.scenario);
  config.background = background;
  return config;
}

FleetRunResult run_fleet(const FleetSpec& spec,
                         const FleetRunOptions& options) {
  FleetSampler sampler(spec);
  FleetMaterializer materializer(spec);
  sim::BatchRunner runner(options.workers);
  // The plan grows wave to wave (single-threaded between run_collecting
  // calls) and is shared read-only by every wave's workers: each distinct
  // (platform, ambient bin) descriptor compiles its floorplan template once,
  // and each floorplan structure its propagator matrices once, for the
  // whole fleet -- or once for the server's lifetime when the caller hands
  // in its warm per-executor plan. Models travel on the jobs themselves
  // (model_for), so the plan never calibrates.
  std::unique_ptr<sim::RunPlan> local_plan;
  if (options.plan == nullptr) {
    local_plan = std::make_unique<sim::RunPlan>(spec.base);
  }
  sim::RunPlan& plan = options.plan != nullptr ? *options.plan : *local_plan;
  plan.cache_config(spec.base);

  /// A drawn device with what only the calling thread may resolve.
  struct WaveDevice {
    DeviceProfile profile;
    sim::PlatformPtr descriptor;
    const sysid::IdentifiedPlatformModel* model = nullptr;
  };
  FleetRunResult out;
  const std::uint64_t total = spec.device_count;
  std::vector<WaveDevice> wave;
  std::vector<std::exception_ptr> build_errors;
  while (out.devices_run < total) {
    if (options.should_stop && options.should_stop()) {
      out.stopped_early = true;
      break;
    }
    wave.resize(std::size_t(
        std::min<std::uint64_t>(spec.wave_size, total - out.devices_run)));
    for (WaveDevice& device : wave) {
      sampler.next(device.profile);
      device.descriptor = materializer.descriptor_for(device.profile);
      device.model = materializer.model_for(device.profile.platform);
      plan.cache_platform(device.descriptor);
    }
    // Workers build each config just before running it. A build failure is
    // the fleet's, not the device's: it propagates, lowest index first.
    build_errors.assign(wave.size(), nullptr);
    const sim::BatchOutcome outcome = runner.run_collecting(
        wave.size(),
        [&](std::size_t i, sim::BatchJob& job) -> const sim::BatchJob& {
          try {
            job.config =
                materializer.config_for(wave[i].profile, wave[i].descriptor);
          } catch (...) {
            build_errors[i] = std::current_exception();
            throw;
          }
          job.model = wave[i].model;
          return job;
        },
        plan);
    for (const std::exception_ptr& e : build_errors) {
      if (e) std::rethrow_exception(e);
    }
    // Fold in input order: with BatchRunner results bit-identical to serial
    // execution, the aggregate is too -- across 1 vs N workers and restarts.
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
      if (outcome.errors[i]) {
        out.aggregate.fold_error();
      } else {
        out.aggregate.fold_result(outcome.results[i]);
      }
    }
    out.devices_run += wave.size();
    if (options.on_wave) {
      options.on_wave(FleetProgress{out.devices_run, total, out.aggregate});
    }
  }
  return out;
}

void apply_smoke_caps(FleetSpec& spec) {
  sim::apply_smoke_caps(spec.base);
  spec.scenario_nominal_duration_s =
      std::min(spec.scenario_nominal_duration_s, 6.0);
  spec.retain_traces = false;
}

}  // namespace dtpm::serve
