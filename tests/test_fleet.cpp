// Fleet mode end to end: deterministic sampling, spec JSON round-trip,
// distribution validation, and the acceptance-criteria checks -- the
// streaming run_fleet aggregate must equal an offline BatchRunner reference
// over the same sampled profiles (byte-identical JSON: rates and energy are
// exact sums, percentiles come from the same deterministic sketch fed in
// the same order), and must be invariant across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/aggregator.hpp"
#include "serve/fleet.hpp"
#include "serve/fleet_io.hpp"
#include "sim/batch.hpp"
#include "sim/config_io.hpp"
#include "sim/engine.hpp"
#include "sim/platform_registry.hpp"
#include "sim/run_plan.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"

#ifndef DTPM_CONFIG_DIR
#define DTPM_CONFIG_DIR "examples/configs"
#endif

namespace dtpm::serve {
namespace {

/// A fleet small enough for a unit test but wide enough to exercise every
/// sampling axis: two platforms, two families, a real ambient band, and
/// multi-wave execution (device_count > wave_size).
FleetSpec test_spec() {
  FleetSpec spec;
  spec.device_count = 96;
  spec.seed = 7;
  spec.wave_size = 40;  // 3 waves, last one ragged
  spec.base.policy_name = "reactive";
  spec.base.engine = sim::Engine::kPropagator;  // keep the test fast
  spec.base.warmup_s = 0.5;
  spec.base.max_sim_time_s = 3.0;
  spec.platforms = {{"odroid-xu-e", 2.0}, {"dragon", 1.0}};
  spec.families = {{"bursty", 1.0}, {"periodic-square", 1.0}};
  spec.ambient_c = {22.0, 32.0};
  spec.background_duty = {0.05, 0.25};
  spec.scenario_nominal_duration_s = 3.0;
  spec.scenario_intensity = 1.0;
  return spec;
}

TEST(SampleFleet, DeterministicFromSeed) {
  const FleetSpec spec = test_spec();
  const std::vector<DeviceProfile> a = sample_fleet(spec);
  const std::vector<DeviceProfile> b = sample_fleet(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(spec.device_count, a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].platform, b[i].platform);
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].ambient_c, b[i].ambient_c);
    EXPECT_EQ(a[i].background_duty, b[i].background_duty);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(SampleFleet, SeedChangesTheFleet) {
  FleetSpec spec = test_spec();
  const std::vector<DeviceProfile> a = sample_fleet(spec);
  spec.seed = 8;
  const std::vector<DeviceProfile> b = sample_fleet(spec);
  ASSERT_EQ(a.size(), b.size());
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_differ = any_differ || a[i].seed != b[i].seed ||
                 a[i].ambient_c != b[i].ambient_c;
  }
  EXPECT_TRUE(any_differ);
}

TEST(SampleFleet, RespectsDistributions) {
  const FleetSpec spec = test_spec();
  std::set<std::string> platforms, families;
  for (const DeviceProfile& d : sample_fleet(spec)) {
    platforms.insert(d.platform);
    families.insert(d.family);
    EXPECT_GE(d.ambient_c, spec.ambient_c.lo);
    EXPECT_LE(d.ambient_c, spec.ambient_c.hi);
    // Quantized to 0.25 C bins (bounds the distinct-descriptor count).
    EXPECT_EQ(d.ambient_c * 4.0, double(long(d.ambient_c * 4.0)));
    EXPECT_GE(d.background_duty, spec.background_duty.lo);
    EXPECT_LE(d.background_duty, spec.background_duty.hi);
  }
  EXPECT_EQ(std::set<std::string>({"odroid-xu-e", "dragon"}), platforms);
  EXPECT_EQ(std::set<std::string>({"bursty", "periodic-square"}), families);
}

TEST(SampleFleet, DegenerateLoHiPinsTheAxis) {
  FleetSpec spec = test_spec();
  spec.ambient_c = {31.0, 31.0};
  spec.background_duty = {0.2, 0.2};
  for (const DeviceProfile& d : sample_fleet(spec)) {
    EXPECT_EQ(31.0, d.ambient_c);
    EXPECT_EQ(0.2, d.background_duty);
  }
}

TEST(SampleFleet, ValidatesDistributions) {
  {
    FleetSpec spec = test_spec();
    spec.device_count = 0;
    EXPECT_THROW(sample_fleet(spec), std::invalid_argument);
  }
  {
    FleetSpec spec = test_spec();
    spec.platforms = {{"odroid-xu", 1.0}};  // typo'd name
    EXPECT_THROW(sample_fleet(spec), std::invalid_argument);
  }
  {
    FleetSpec spec = test_spec();
    spec.platforms = {{"dragon", 0.0}};  // zero total weight
    EXPECT_THROW(sample_fleet(spec), std::invalid_argument);
  }
  {
    FleetSpec spec = test_spec();
    spec.ambient_c = {35.0, 20.0};  // inverted
    EXPECT_THROW(sample_fleet(spec), std::invalid_argument);
  }
  {
    FleetSpec spec = test_spec();
    spec.background_duty = {0.5, 1.5};  // outside [0, 1]
    EXPECT_THROW(sample_fleet(spec), std::invalid_argument);
  }
  {
    FleetSpec spec = test_spec();
    spec.families = {{"no-such-family", 1.0}};
    EXPECT_THROW(sample_fleet(spec), std::invalid_argument);
  }
}

TEST(FleetSpecJson, RoundTripsExactly) {
  const FleetSpec spec = test_spec();
  const util::JsonValue emitted = to_json(spec);
  const FleetSpec reparsed = fleet_from_json(emitted);
  EXPECT_EQ(util::json_write(emitted), util::json_write(to_json(reparsed)));
  EXPECT_EQ(spec.device_count, reparsed.device_count);
  EXPECT_EQ(spec.seed, reparsed.seed);
  EXPECT_EQ(spec.wave_size, reparsed.wave_size);
  ASSERT_EQ(spec.platforms.size(), reparsed.platforms.size());
  EXPECT_EQ(spec.platforms[0].name, reparsed.platforms[0].name);
  EXPECT_EQ(spec.platforms[0].weight, reparsed.platforms[0].weight);
  EXPECT_EQ(spec.ambient_c.lo, reparsed.ambient_c.lo);
  EXPECT_EQ(spec.ambient_c.hi, reparsed.ambient_c.hi);
}

TEST(FleetSpecJson, ExampleSmokeSpecLoadsCleanly) {
  const FleetSpec spec =
      load_fleet_spec(std::string(DTPM_CONFIG_DIR) + "/fleet_smoke.json");
  EXPECT_EQ(10000u, spec.device_count);
  EXPECT_EQ(42u, spec.seed);
  EXPECT_FALSE(spec.retain_traces);
  EXPECT_NO_THROW(sample_fleet(spec));  // distributions are runnable
}

// Sampled devices carry full 64-bit seeds; a device config written with
// to_json must parse back to the same config and the same run.
TEST(FleetSpecJson, DeviceConfigsRoundTripThroughJson) {
  FleetSpec spec =
      load_fleet_spec(std::string(DTPM_CONFIG_DIR) + "/fleet_smoke.json");
  apply_smoke_caps(spec);
  spec.device_count = 3;
  spec.base.max_sim_time_s = 3.0;
  FleetMaterializer materializer(spec);
  bool saw_wide_seed = false;
  for (const DeviceProfile& device : sample_fleet(spec)) {
    const sim::ExperimentConfig config = materializer.config_for(device);
    saw_wide_seed |= config.seed > (std::uint64_t{1} << 53);
    const util::JsonValue json = sim::to_json(config);
    const sim::ExperimentConfig reparsed = sim::experiment_from_json(json);
    EXPECT_EQ(config.seed, reparsed.seed);
    EXPECT_EQ(*config.platform, *reparsed.platform);
    EXPECT_EQ(util::json_write(json), util::json_write(sim::to_json(reparsed)));

    const sim::RunResult a = sim::run_experiment(config);
    const sim::RunResult b = sim::run_experiment(reparsed);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.execution_time_s, b.execution_time_s);
    EXPECT_EQ(a.platform_energy_j, b.platform_energy_j);
    EXPECT_EQ(a.violation_time_s, b.violation_time_s);
    EXPECT_EQ(a.max_temp_stats.max(), b.max_temp_stats.max());
    EXPECT_EQ(a.max_temp_stats.mean(), b.max_temp_stats.mean());
    EXPECT_EQ(a.plant_substeps, b.plant_substeps);
  }
  EXPECT_TRUE(saw_wide_seed) << "no device drew a seed past 2^53";
}

/// Offline reference: the same profiles run through a plain BatchRunner in
/// one flat batch (no waves) and folded into a FleetAggregate in input
/// order. run_fleet must reproduce this byte for byte -- exact for counts,
/// rates, and energy; identical for percentiles because the same
/// deterministic sketch sees the same values in the same order.
std::string offline_reference_json(const FleetSpec& spec) {
  const std::vector<DeviceProfile> profiles = sample_fleet(spec);
  FleetMaterializer materializer(spec);
  sim::RunPlan plan(spec.base);
  std::vector<sim::BatchJob> jobs;
  jobs.reserve(profiles.size());
  for (const DeviceProfile& device : profiles) {
    sim::BatchJob job;
    job.config = materializer.config_for(device);
    job.model = materializer.model_for(device.platform);
    plan.cache_platform(job.config.platform);
    jobs.push_back(std::move(job));
  }
  const sim::BatchOutcome outcome =
      sim::BatchRunner(2).run_collecting(jobs, &plan);
  FleetAggregate aggregate;
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (outcome.errors[i]) {
      aggregate.fold_error();
    } else {
      aggregate.fold_result(outcome.results[i]);
    }
  }
  return util::json_write(aggregate.to_json());
}

TEST(RunFleet, MatchesOfflineBatchRunnerReference) {
  const FleetSpec spec = test_spec();
  const FleetRunResult streamed = run_fleet(spec);
  EXPECT_EQ(spec.device_count, streamed.devices_run);
  EXPECT_FALSE(streamed.stopped_early);
  EXPECT_EQ(0u, streamed.aggregate.failed());
  EXPECT_EQ(offline_reference_json(spec),
            util::json_write(streamed.aggregate.to_json()));
}

/// The per-wave serial rebuild perfbench's traced run makes: sample every
/// profile, then per wave materialize on this thread and hand the jobs to
/// the vector run_collecting.
std::string per_wave_rebuild_json(const FleetSpec& spec, unsigned workers) {
  const std::vector<DeviceProfile> profiles = sample_fleet(spec);
  FleetMaterializer materializer(spec);
  sim::BatchRunner runner(workers);
  sim::RunPlan plan(spec.base);
  FleetAggregate aggregate;
  std::vector<sim::BatchJob> jobs;
  for (std::size_t begin = 0; begin < profiles.size();
       begin += std::size_t(spec.wave_size)) {
    const std::size_t end =
        std::min(profiles.size(), begin + std::size_t(spec.wave_size));
    jobs.clear();
    for (std::size_t i = begin; i < end; ++i) {
      sim::BatchJob job;
      job.config = materializer.config_for(profiles[i]);
      job.model = materializer.model_for(profiles[i].platform);
      plan.cache_platform(job.config.platform);
      jobs.push_back(std::move(job));
    }
    const sim::BatchOutcome outcome = runner.run_collecting(jobs, &plan);
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
      if (outcome.errors[i]) {
        aggregate.fold_error();
      } else {
        aggregate.fold_result(outcome.results[i]);
      }
    }
  }
  return util::json_write(aggregate.to_json());
}

// One aggregate across worker counts, wave sizes (one device per wave, many
// ragged waves, one wave holding the whole fleet) and the serial per-wave
// rebuild.
TEST(RunFleet, AggregateInvariantAcrossWorkersWavesAndRebuild) {
  FleetSpec spec = test_spec();
  const std::string reference = offline_reference_json(spec);
  for (std::uint64_t wave_size : {1u, 7u, 512u}) {
    spec.wave_size = wave_size;
    for (unsigned workers : {1u, 4u}) {
      SCOPED_TRACE("wave_size " + std::to_string(wave_size) + ", -j " +
                   std::to_string(workers));
      FleetRunOptions options;
      options.workers = workers;
      const FleetRunResult result = run_fleet(spec, options);
      EXPECT_EQ(spec.device_count, result.devices_run);
      EXPECT_EQ(reference, util::json_write(result.aggregate.to_json()));
    }
  }
  spec.wave_size = 40;
  EXPECT_EQ(reference, per_wave_rebuild_json(spec, 1));
  EXPECT_EQ(reference, per_wave_rebuild_json(spec, 4));
}

// Workers build device configs, but a config that cannot be built still
// fails the fleet rather than one device: an ambient above the platform's
// thermal limit makes set_platform reject the shifted descriptor.
TEST(RunFleet, ConfigBuildErrorPropagates) {
  FleetSpec spec = test_spec();
  spec.ambient_c = {150.0, 150.0};
  for (unsigned workers : {1u, 4u}) {
    FleetRunOptions options;
    options.workers = workers;
    try {
      run_fleet(spec, options);
      ADD_FAILURE() << "-j " << workers << ": run_fleet did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("default_t_max_c"),
                std::string::npos)
          << e.what();
    }
  }
}

// The streaming sampler draws exactly sample_fleet's sequence.
TEST(SampleFleet, SamplerStreamsTheSampledFleet) {
  const FleetSpec spec = test_spec();
  const std::vector<DeviceProfile> drained = sample_fleet(spec);
  FleetSampler sampler(spec);
  DeviceProfile device;
  for (const DeviceProfile& expected : drained) {
    ASSERT_TRUE(sampler.next(device));
    EXPECT_EQ(expected.index, device.index);
    EXPECT_EQ(expected.platform, device.platform);
    EXPECT_EQ(expected.family, device.family);
    EXPECT_EQ(expected.ambient_c, device.ambient_c);
    EXPECT_EQ(expected.background_duty, device.background_duty);
    EXPECT_EQ(expected.seed, device.seed);
  }
  EXPECT_FALSE(sampler.next(device));
}

TEST(RunFleet, StreamsProgressAndHonorsStop) {
  FleetSpec spec = test_spec();
  spec.device_count = 60;
  spec.wave_size = 20;
  std::vector<std::uint64_t> done;
  FleetRunOptions options;
  options.workers = 1;
  options.on_wave = [&done](const FleetProgress& p) {
    done.push_back(p.done);
    EXPECT_EQ(60u, p.total);
  };
  options.should_stop = [&done] { return done.size() >= 2; };
  const FleetRunResult result = run_fleet(spec, options);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_EQ(40u, result.devices_run);
  EXPECT_EQ(40u, result.aggregate.devices());
  EXPECT_EQ((std::vector<std::uint64_t>{20, 40}), done);
}

TEST(RunFleet, RetainTracesOffKeepsRunsTraceless) {
  // The memory-flat contract: materialized configs never record traces
  // unless the spec opts in.
  const FleetSpec spec = test_spec();
  FleetMaterializer materializer(spec);
  const std::vector<DeviceProfile> profiles = sample_fleet(spec);
  const sim::ExperimentConfig config = materializer.config_for(profiles[0]);
  EXPECT_FALSE(config.record_trace);
  EXPECT_TRUE(config.background.has_value());
  EXPECT_EQ(profiles[0].background_duty, config.background->base_duty);
  EXPECT_EQ(profiles[0].seed, config.seed);
}

TEST(RunFleet, MaterializerShiftsAmbient) {
  FleetSpec spec = test_spec();
  spec.platforms = {{"odroid-xu-e", 1.0}};
  spec.ambient_c = {35.0, 35.0};
  FleetMaterializer materializer(spec);
  const std::vector<DeviceProfile> profiles = sample_fleet(spec);
  const sim::ExperimentConfig config = materializer.config_for(profiles[0]);
  ASSERT_NE(nullptr, config.platform);
  EXPECT_EQ("odroid-xu-e", config.platform->name);
  bool saw_boundary = false;
  for (const auto& node : config.platform->floorplan.nodes) {
    if (node.is_boundary) {
      saw_boundary = true;
      EXPECT_EQ(35.0, node.initial_temp_c);
    }
  }
  EXPECT_TRUE(saw_boundary);
}

TEST(FleetSmoke, CapsMakeSpecsCiSized) {
  FleetSpec spec = test_spec();
  spec.retain_traces = true;
  spec.scenario_nominal_duration_s = 600.0;
  spec.base.max_sim_time_s = 3600.0;
  apply_smoke_caps(spec);
  EXPECT_FALSE(spec.retain_traces);
  EXPECT_LE(spec.scenario_nominal_duration_s, 6.0);
  EXPECT_LT(spec.base.max_sim_time_s, 3600.0);
}

}  // namespace
}  // namespace dtpm::serve
