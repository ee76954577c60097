// fleet-smoke: examples/configs/fleet_smoke.json under smoke caps (10k
// devices, reactive policy, batched engine, every platform x family),
// run in-process through serve::run_fleet. Timed unit: one whole fleet.
#include <algorithm>
#include <set>

#include "bench.hpp"
#include "host.hpp"
#include "lint/lint.hpp"
#include "serve/fleet_io.hpp"
#include "sim/batch.hpp"
#include "sim/run_plan.hpp"
#include "sim/scenario_catalog.hpp"
#include "stats.hpp"
#include "util/diagnostics.hpp"

namespace perfbench {

namespace serve = dtpm::serve;
namespace sim = dtpm::sim;
namespace util = dtpm::util;

util::JsonValue fleet_smoke_document() {
  return util::json_parse_file(PERFBENCH_FLEET_SPEC);
}

serve::FleetSpec fleet_smoke_spec(std::uint64_t seed,
                                  std::uint64_t device_count) {
  serve::FleetSpec spec = serve::fleet_from_json(fleet_smoke_document());
  spec.seed = seed;
  if (device_count != 0) spec.device_count = device_count;
  serve::apply_smoke_caps(spec);
  return spec;
}

FleetTrace traced_fleet(const serve::FleetSpec& spec, unsigned workers,
                        Tracer& tracer) {
  Tracer::Scope whole(tracer, "fleet.run");
  const std::int64_t start = now_ns();
  FleetTrace out;
  std::vector<serve::DeviceProfile> profiles;
  {
    Tracer::Scope s(tracer, "serve.sample");
    profiles = serve::sample_fleet(spec);
  }
  serve::FleetMaterializer materializer(spec);
  sim::BatchRunner runner(workers);
  sim::RunPlan plan(spec.base);
  serve::FleetAggregate aggregate;
  std::set<const sim::PlatformDescriptor*> descriptors;
  std::vector<sim::BatchJob> jobs;
  for (std::size_t begin = 0; begin < profiles.size();
       begin += std::size_t(spec.wave_size)) {
    const std::size_t end =
        std::min(profiles.size(), begin + std::size_t(spec.wave_size));
    {
      Tracer::Scope s(tracer, "serve.materialize");
      jobs.clear();
      for (std::size_t i = begin; i < end; ++i) {
        sim::BatchJob job;
        job.config = materializer.config_for(profiles[i]);
        job.model = materializer.model_for(profiles[i].platform);
        plan.cache_platform(job.config.platform);
        descriptors.insert(job.config.platform.get());
        jobs.push_back(std::move(job));
      }
    }
    sim::BatchOutcome outcome;
    {
      Tracer::Scope s(tracer, "sim.wave");
      outcome = runner.run_collecting(jobs, &plan);
    }
    Tracer::Scope s(tracer, "serve.fold");
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
      if (outcome.errors[i]) {
        aggregate.fold_error();
        ++out.failed;
      } else {
        aggregate.fold_result(outcome.results[i]);
        out.plant_substeps += outcome.results[i].plant_substeps;
        out.control_steps += outcome.results[i].control_steps;
      }
    }
    out.devices += end - begin;
  }
  out.distinct_descriptors = descriptors.size();
  out.aggregate_json = util::json_write(aggregate.to_json(), 0);
  out.wall_s = double(now_ns() - start) / 1e9;
  return out;
}

void report_fleet_layers(const serve::FleetSpec& spec, const FleetTrace& fleet,
                         Tracer& tracer, Report& report) {
  const std::vector<double> waves = tracer.durations_ns("sim.wave");
  double wave_total_ns = 0.0;
  for (double w : waves) wave_total_ns += w;
  report.metric("sim.wave_ms_p50", percentile(waves, 50) / 1e6, "ms");
  report.metric("sim.wave_ms_p99", percentile(waves, 99) / 1e6, "ms");
  report.metric("sim.ns_per_substep",
                wave_total_ns / double(std::max<std::uint64_t>(
                                    fleet.plant_substeps, 1)),
                "ns");
  report.metric("sim.distinct_descriptors", double(fleet.distinct_descriptors),
                "count");
  report.metric("serve.sample_ms",
                tracer.total_ns("serve.sample") / 1e6 / double(fleet.fleets),
                "ms");
  report.metric("serve.materialize_us",
                tracer.total_ns("serve.materialize") / 1e3 /
                    double(fleet.devices),
                "us");
  report.metric("serve.fold_us",
                tracer.total_ns("serve.fold") / 1e3 / double(waves.size()),
                "us");

  // A progress reply serializes the running aggregate once per wave; time
  // that on the finished aggregate, once per wave of this fleet.
  const util::JsonValue aggregate = util::json_parse(fleet.aggregate_json);
  const std::size_t writes = std::max<std::size_t>(waves.size(), 64);
  {
    Tracer::Scope s(tracer, "util.json_write");
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < writes; ++i) {
      bytes += util::json_write(aggregate, 0).size();
    }
    report.check(bytes == writes * fleet.aggregate_json.size(),
                 "aggregate JSON rewrites differ in size", 0);
  }
  report.metric("util.json_write_us",
                tracer.total_ns("util.json_write") / 1e3 / double(writes), "us");

  // Scenario generation per device, through the catalog the materializer
  // uses, over every sampled device.
  const std::vector<serve::DeviceProfile> profiles = serve::sample_fleet(spec);
  dtpm::workload::ScenarioParams params;
  params.nominal_duration_s = spec.scenario_nominal_duration_s;
  params.intensity = spec.scenario_intensity;
  const sim::ScenarioCatalog catalog = sim::ScenarioCatalog::standard(params);
  std::size_t phases = 0;
  {
    Tracer::Scope s(tracer, "workload.scenario_make");
    for (const serve::DeviceProfile& device : profiles) {
      phases += catalog.make(device.family, device.seed).phases.size();
    }
  }
  report.check(phases > 0, "generated scenarios have no phases", 0);
  report.metric("workload.scenario_make_us",
                tracer.total_ns("workload.scenario_make") / 1e3 /
                    double(profiles.size()),
                "us");
}

namespace {

/// Per-pass set-up a fleet user pays: read + lint the spec, sample it.
double fleet_setup_s(std::uint64_t seed) {
  const std::int64_t start = now_ns();
  const util::JsonValue doc = fleet_smoke_document();
  util::CollectingSink sink;
  serve::FleetSpec spec = serve::fleet_from_json(doc, "$", sink);
  dtpm::lint::lint_fleet(spec, &doc, "$", sink);
  if (sink.has_errors()) throw std::runtime_error("fleet_smoke.json lints dirty");
  spec.seed = seed;
  serve::apply_smoke_caps(spec);
  const std::size_t devices = serve::sample_fleet(spec).size();
  if (devices != spec.device_count) throw std::runtime_error("short sample");
  return double(now_ns() - start) / 1e9;
}

/// The sampled configs the layer probes run: a spread of devices.
std::vector<sim::ExperimentConfig> sample_device_configs(
    const serve::FleetSpec& spec, std::size_t count) {
  const std::vector<serve::DeviceProfile> profiles = serve::sample_fleet(spec);
  serve::FleetMaterializer materializer(spec);
  std::vector<sim::ExperimentConfig> configs;
  const std::size_t stride = std::max<std::size_t>(profiles.size() / count, 1);
  for (std::size_t i = 0; i < profiles.size() && configs.size() < count;
       i += stride) {
    configs.push_back(materializer.config_for(profiles[i]));
  }
  return configs;
}

}  // namespace

Report run_fleet_smoke(const Options& opts) {
  Report report;
  const unsigned workers = load_width();
  warm_host(kWarmSeconds, workers);

  const SetupTimes setup = time_setup([&] { return fleet_setup_s(opts.seed); });
  const serve::FleetSpec spec = fleet_smoke_spec(opts.seed);
  serve::FleetRunOptions run_options;
  run_options.workers = workers;

  // One untimed pass: the reference every later pass must reproduce.
  const serve::FleetRunResult reference = serve::run_fleet(spec, run_options);
  const std::string reference_json =
      util::json_write(reference.aggregate.to_json(), 0);
  report.attempt(reference.devices_run);
  report.check(reference.devices_run == spec.device_count &&
                   reference.aggregate.devices() == spec.device_count,
               "fleet ran a different device count", spec.device_count);
  report.check(reference.aggregate.failed() == 0, "fleet devices failed",
               reference.aggregate.failed());
  report.note("digest fleet-smoke seed " + std::to_string(opts.seed) + " " +
              hex64(fnv1a(reference_json)));

  if (!opts.trace) {
    // A device's result reaches the caller with its wave's fold (the
    // progress callback a streaming client sees): its latency runs from the
    // start of the fleet to that fold.
    std::vector<double> rates;
    std::vector<std::pair<double, std::size_t>> latency_ms;  // (ms, devices)
    const std::int64_t deadline = now_ns() + std::int64_t(opts.seconds * 1e9);
    while (rates.size() < 3 || now_ns() < deadline) {
      const std::int64_t start = now_ns();
      std::uint64_t folded = 0;
      run_options.on_wave = [&](const serve::FleetProgress& progress) {
        latency_ms.emplace_back(double(now_ns() - start) / 1e6,
                                std::size_t(progress.done - folded));
        folded = progress.done;
      };
      const serve::FleetRunResult pass = serve::run_fleet(spec, run_options);
      const double wall = double(now_ns() - start) / 1e9;
      rates.push_back(double(pass.devices_run) / wall);
      report.attempt(pass.devices_run);
      report.check(util::json_write(pass.aggregate.to_json(), 0) ==
                       reference_json,
                   "a fleet pass disagrees with the reference aggregate",
                   pass.devices_run);
    }
    note_pass_rates(rates, report);
    report.metric("runs_per_s", median(rates), "1/s");
    report.metric("result_p50_ms", weighted_percentile(latency_ms, 50), "ms");
    report.metric("result_p99_ms", weighted_percentile(latency_ms, 99), "ms");
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  Tracer tracer(true);
  const std::int64_t start = now_ns();
  const serve::FleetRunResult untraced = serve::run_fleet(spec, run_options);
  const double untraced_rate =
      double(untraced.devices_run) / (double(now_ns() - start) / 1e9);
  report.attempt(untraced.devices_run);
  const FleetTrace fleet = traced_fleet(spec, workers, tracer);
  report.attempt(fleet.devices);
  report.check(fleet.aggregate_json == reference_json,
               "rebuilt run_fleet aggregate differs from run_fleet's",
               fleet.devices);
  report.check(fleet.devices == spec.device_count && fleet.failed == 0,
               "rebuilt fleet lost or failed devices", fleet.failed);
  report.metric("trace.overhead_runs_per_s",
                double(fleet.devices) / fleet.wall_s - untraced_rate, "1/s");
  report.metric("thermal.plant_substeps", double(fleet.plant_substeps), "count");
  report.metric("sim.control_steps", double(fleet.control_steps), "count");
  report.metric("sim.registry_init_ms", setup.registry_ms, "ms");
  report_fleet_layers(spec, fleet, tracer, report);
  probe_layers(sample_device_configs(spec, 12), tracer, report);
  secondary_serve_layers(opts.seed, tracer, report);
  write_trace(opts, tracer, report);
  return report;
}

}  // namespace perfbench
