#include "sim/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>

#include "sim/engine.hpp"
#include "sim/platform_registry.hpp"
#include "sim/run_plan.hpp"

namespace dtpm::sim {

BatchRunner::BatchRunner(unsigned worker_count) : worker_count_(worker_count) {
  if (worker_count_ == 0) {
    worker_count_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

unsigned BatchRunner::effective_worker_count() const {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max(1u, std::min(worker_count_, hw));
}

std::vector<RunResult> BatchRunner::run(const std::vector<BatchJob>& jobs,
                                        const RunPlan* shared_plan) const {
  BatchOutcome outcome = run_collecting(jobs, shared_plan);
  for (const std::exception_ptr& e : outcome.errors) {
    if (e) std::rethrow_exception(e);
  }
  return std::move(outcome.results);
}

BatchOutcome BatchRunner::run_collecting(const std::vector<BatchJob>& jobs,
                                         const RunPlan* shared_plan) const {
  BatchOutcome outcome;
  outcome.results.resize(jobs.size());
  outcome.errors.resize(jobs.size());
  if (jobs.empty()) return outcome;

  // Hoist the per-run invariants (per-platform floorplan templates,
  // benchmark resolution, per-platform calibration) once, on this thread,
  // before the pool spawns; workers share the plan read-only. Configs the
  // plan does not cover fall back transparently. A caller-supplied shared
  // plan (the serve layer's warm cache) replaces the per-call build; its
  // population -- including any models jobs rely on -- is the caller's
  // responsibility, because a plan shared across calls must stay read-only
  // here.
  std::unique_ptr<RunPlan> local_plan;
  if (shared_plan == nullptr) {
    local_plan = std::make_unique<RunPlan>(jobs);
    for (const BatchJob& job : jobs) {
      // Jobs that need the identified model but were not handed one get it
      // from the plan's per-platform calibration cache (one calibration per
      // distinct platform, shared read-only by every run on it). A job that
      // carries its own model keeps it.
      if (job.model == nullptr && needs_identified_model(job.config)) {
        local_plan->cache_model_for(job.config);
      }
    }
  }
  const RunPlan& plan = shared_plan != nullptr ? *shared_plan : *local_plan;

  auto run_one = [&](std::size_t i) {
    try {
      const sysid::IdentifiedPlatformModel* model =
          jobs[i].model != nullptr ? jobs[i].model
                                   : plan.model_for(jobs[i].config);
      outcome.results[i] = run_experiment(jobs[i].config, model, &plan);
    } catch (...) {
      outcome.errors[i] = std::current_exception();
    }
  };
  auto count_failures = [&outcome] {
    for (const std::exception_ptr& e : outcome.errors) {
      if (e) ++outcome.failure_count;
    }
  };

  const unsigned workers =
      std::min<unsigned>(effective_worker_count(), unsigned(jobs.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
    count_failures();
    return outcome;
  }

  // Work-stealing by atomic index: each worker pops the next unclaimed job,
  // so stragglers never serialize the whole batch. Every job only touches
  // its own Simulation (seeded from its config) and its own results/errors
  // slots, which is what makes parallel output bit-identical to serial --
  // including batches where some runs throw.
  // Cache-line-aligned so the claim counter never false-shares with the
  // surrounding stack frame (results/errors are only written at run end).
  alignas(64) std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      run_one(i);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  count_failures();
  return outcome;
}

std::vector<RunResult> BatchRunner::run(
    const std::vector<ExperimentConfig>& configs,
    const sysid::IdentifiedPlatformModel* model) const {
  std::vector<BatchJob> jobs;
  jobs.reserve(configs.size());
  for (const ExperimentConfig& c : configs) jobs.push_back({c, model});
  return run(jobs);
}

std::vector<ExperimentConfig> sweep(const SweepGrid& grid) {
  const std::vector<std::string> benchmarks =
      grid.benchmarks.empty() ? std::vector<std::string>{grid.base.benchmark}
                              : grid.benchmarks;
  const std::vector<std::string> policies =
      grid.policy_names.empty()
          ? std::vector<std::string>{grid.base.policy_name}
          : grid.policy_names;
  const std::vector<std::uint64_t> seeds =
      grid.seeds.empty() ? std::vector<std::uint64_t>{grid.base.seed}
                         : grid.seeds;
  const std::vector<core::DtpmParams> dtpm_params =
      grid.dtpm_params.empty()
          ? std::vector<core::DtpmParams>{grid.base.dtpm}
          : grid.dtpm_params;
  // Resolve each platform once; every generated config shares the
  // descriptor (cheap shared_ptr copies, and RunPlan dedupes by pointer).
  std::vector<PlatformPtr> platforms;
  for (const std::string& name : grid.platforms) {
    platforms.push_back(PlatformRegistry::instance().get(name));
  }
  if (platforms.empty()) platforms.push_back(nullptr);  // inherit from base

  std::vector<ExperimentConfig> configs;
  configs.reserve(benchmarks.size() * platforms.size() * policies.size() *
                  dtpm_params.size() * seeds.size());
  for (const std::string& benchmark : benchmarks) {
    for (const PlatformPtr& platform : platforms) {
      for (const std::string& policy : policies) {
        for (const core::DtpmParams& dtpm : dtpm_params) {
          for (std::uint64_t seed : seeds) {
            ExperimentConfig config = grid.base;
            config.benchmark = benchmark;
            // A named benchmarks dimension must actually take effect: an
            // inline scenario inherited from `base` would otherwise shadow
            // every name (Simulation prefers config.scenario).
            if (!grid.benchmarks.empty()) config.scenario.reset();
            if (platform != nullptr) set_platform(config, platform);
            set_policy(config, policy);
            // An explicit dtpm axis overrides the platform's default t_max;
            // without one the grid inherits base.dtpm (already copied),
            // adjusted by set_platform above.
            if (!grid.dtpm_params.empty()) config.dtpm = dtpm;
            config.seed = seed;
            configs.push_back(std::move(config));
          }
        }
      }
    }
  }
  return configs;
}

}  // namespace dtpm::sim
