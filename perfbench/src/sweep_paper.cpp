// sweep-paper: the §6.2 policy comparison scaled up -- every Table-6.4
// benchmark x the four paper policies x every registry platform x seeds, at
// full run length on the default reference-rk4 engine, through BatchRunner
// after per-platform calibration. Timed unit: one whole sweep.
//
// A pass is a closed loop of `workers` client threads, each submitting the
// sweep's next run as a one-job BatchRunner batch and stamping its result
// when that call returns. Handing BatchRunner the whole sweep as one batch
// would return every result at once, so no result's own latency could be
// seen from here.
#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "bench.hpp"
#include "host.hpp"
#include "sim/batch.hpp"
#include "sim/calibration.hpp"
#include "sim/platform_registry.hpp"
#include "sim/run_plan.hpp"
#include "stats.hpp"
#include "workload/suite.hpp"

namespace perfbench {

namespace sim = dtpm::sim;
namespace util = dtpm::util;

namespace {

/// Seeds per benchmark x policy x platform cell in one sweep.
constexpr std::uint64_t kSeedsPerCell = 4;

std::vector<sim::ExperimentConfig> sweep_configs(std::uint64_t seed) {
  sim::SweepGrid grid;
  grid.base.record_trace = false;
  for (const dtpm::workload::Benchmark& b : dtpm::workload::standard_suite()) {
    grid.benchmarks.push_back(b.name);
  }
  grid.platforms = platform_names();
  grid.policy_names = paper_policies();
  for (std::uint64_t i = 0; i < kSeedsPerCell; ++i) {
    grid.seeds.push_back(seed * kSeedsPerCell + i);
  }
  return sim::sweep(grid);
}

/// What a sweep user waits for before the first run: one calibration per
/// platform. Returns the seconds taken and fills `models`.
double calibrate_all(std::map<std::string, dtpm::sysid::IdentifiedPlatformModel>&
                         models) {
  const std::int64_t start = now_ns();
  for (const std::string& name : platform_names()) {
    sim::CalibrationOptions options;
    options.platform = sim::PlatformRegistry::instance().get(name);
    models[name] = sim::calibrate_platform(options);
  }
  return double(now_ns() - start) / 1e9;
}

struct Sweep {
  std::vector<std::string> summaries;  ///< per run, serialized
  std::vector<double> run_ms;          ///< per run, submit to result
  std::uint64_t failed = 0;
  std::uint64_t plant_substeps = 0;
  std::uint64_t control_steps = 0;
  double wall_s = 0.0;
};

/// One pass over `batches` (one job each) by `clients` threads. Each run is
/// recorded on its client's track of `tracer` once the pass is over.
Sweep run_sweep(const std::vector<std::vector<sim::BatchJob>>& batches,
                const sim::RunPlan& plan, unsigned clients, Tracer& tracer) {
  struct Slot {
    sim::BatchOutcome outcome;
    std::int64_t submit_ns = 0;
    std::int64_t result_ns = 0;
    std::uint32_t client = 0;
  };
  std::vector<Slot> slots(batches.size());
  std::atomic<std::size_t> next{0};
  const sim::BatchRunner runner(1);
  auto client = [&](std::uint32_t id) {
    for (std::size_t i = next++; i < batches.size(); i = next++) {
      Slot& slot = slots[i];
      slot.client = id;
      slot.submit_ns = now_ns();
      slot.outcome = runner.run_collecting(batches[i], &plan);
      slot.result_ns = now_ns();
    }
  };
  Sweep out;
  const std::int64_t start = now_ns();
  {
    std::vector<std::thread> pool;
    for (std::uint32_t c = 1; c < clients; ++c) pool.emplace_back(client, c);
    client(0);
    for (std::thread& t : pool) t.join();
  }
  out.wall_s = double(now_ns() - start) / 1e9;
  for (const Slot& slot : slots) {
    tracer.record("sim.run", slot.submit_ns, slot.result_ns, slot.client + 1);
    out.run_ms.push_back(double(slot.result_ns - slot.submit_ns) / 1e6);
    if (slot.outcome.errors.at(0)) {
      ++out.failed;
      out.summaries.emplace_back("error");
      continue;
    }
    const sim::RunResult& r = slot.outcome.results.at(0);
    out.plant_substeps += r.plant_substeps;
    out.control_steps += r.control_steps;
    out.summaries.push_back(util::json_write(summary_without_wall(r), 0));
  }
  return out;
}

std::uint64_t sweep_digest(const Sweep& sweep) {
  std::uint64_t h = fnv1a("sweep-paper");
  for (const std::string& s : sweep.summaries) h = fnv1a(s, h);
  return h;
}

}  // namespace

Report run_sweep_paper(const Options& opts) {
  Report report;
  const unsigned workers = load_width();
  warm_host(kWarmSeconds, workers);

  std::map<std::string, dtpm::sysid::IdentifiedPlatformModel> models;
  const SetupTimes setup = time_setup([&] { return calibrate_all(models); });

  const std::vector<sim::ExperimentConfig> configs = sweep_configs(opts.seed);
  std::vector<sim::BatchJob> jobs;
  for (const sim::ExperimentConfig& c : configs) {
    sim::BatchJob job;
    job.config = c;
    if (sim::needs_identified_model(c)) {
      job.model = &models.at(sim::resolved_platform_name(c));
    }
    jobs.push_back(std::move(job));
  }
  const sim::RunPlan plan(jobs);
  std::vector<std::vector<sim::BatchJob>> batches;
  for (const sim::BatchJob& job : jobs) batches.push_back({job});
  Tracer off(false);

  // One untimed sweep: the reference every later sweep must reproduce.
  const Sweep reference = run_sweep(batches, plan, workers, off);
  report.attempt(jobs.size());
  report.check(reference.failed == 0, "sweep runs failed", reference.failed);
  const std::uint64_t reference_digest = sweep_digest(reference);
  report.note("digest sweep-paper seed " + std::to_string(opts.seed) + " " +
              hex64(reference_digest));

  if (!opts.trace) {
    std::vector<double> rates;
    std::vector<double> latency_ms;
    const std::int64_t deadline = now_ns() + std::int64_t(opts.seconds * 1e9);
    while (rates.size() < 3 || now_ns() < deadline) {
      const Sweep pass = run_sweep(batches, plan, workers, off);
      rates.push_back(double(jobs.size()) / pass.wall_s);
      latency_ms.insert(latency_ms.end(), pass.run_ms.begin(), pass.run_ms.end());
      report.attempt(jobs.size());
      report.check(sweep_digest(pass) == reference_digest,
                   "a sweep disagrees with the reference sweep", jobs.size());
    }
    note_pass_rates(rates, report);
    report.metric("runs_per_s", median(rates), "1/s");
    report.metric("result_p50_ms", percentile(latency_ms, 50), "ms");
    report.metric("result_p99_ms", percentile(latency_ms, 99), "ms");
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  Tracer tracer(true);
  const Sweep untraced = run_sweep(batches, plan, workers, off);
  Sweep traced;
  {
    Tracer::Scope s(tracer, "sweep.pass");
    traced = run_sweep(batches, plan, workers, tracer);
  }
  report.attempt(2 * jobs.size());
  report.check(untraced.summaries == reference.summaries &&
                   traced.summaries == reference.summaries,
               "traced and untraced sweeps disagree", jobs.size());
  report.metric("trace.overhead_runs_per_s",
                double(jobs.size()) / traced.wall_s -
                    double(jobs.size()) / untraced.wall_s,
                "1/s");
  report.metric("thermal.plant_substeps", double(traced.plant_substeps), "count");
  report.metric("sim.control_steps", double(traced.control_steps), "count");
  report.metric("sim.registry_init_ms", setup.registry_ms, "ms");

  std::vector<sim::ExperimentConfig> sample;
  const std::size_t stride = std::max<std::size_t>(configs.size() / 12, 1);
  for (std::size_t i = 0; i < configs.size(); i += stride) {
    sample.push_back(configs[i]);
  }
  probe_layers(sample, tracer, report);

  // The lockstep fleet path is bypassed here; its layers come from a small
  // fleet so every traced run reports them.
  const dtpm::serve::FleetSpec fleet_spec = fleet_smoke_spec(opts.seed, 1024);
  const FleetTrace fleet = traced_fleet(fleet_spec, workers, tracer);
  report.attempt(fleet.devices);
  report.check(fleet.failed == 0, "secondary fleet devices failed", fleet.failed);
  report_fleet_layers(fleet_spec, fleet, tracer, report);
  secondary_serve_layers(opts.seed, tracer, report);
  write_trace(opts, tracer, report);
  return report;
}

}  // namespace perfbench
