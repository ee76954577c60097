// Parallel scenario execution: runs a vector of ExperimentConfigs on a
// std::thread worker pool and returns the RunResults in input order. Every
// run is an isolated Simulation seeded from its own config, so a parallel
// batch is bit-identical to running the same configs serially -- the
// property the figure/table benches and the large policy/constraint/horizon
// grids of the related DTPM literature rely on.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/run_result.hpp"
#include "sysid/model_store.hpp"

namespace dtpm::sim {

class RunPlan;

/// One batch entry: a config plus the (shared, read-only) identified model
/// it needs. `model` may be null: policies that require one then get the
/// config's platform calibrated through the batch's RunPlan (once per
/// distinct platform, cached process-wide) instead of failing.
struct BatchJob {
  ExperimentConfig config;
  const sysid::IdentifiedPlatformModel* model = nullptr;
};

/// Outcome of a batch where individual runs are allowed to fail: results
/// and errors align with the input jobs slot for slot, so one malformed
/// scenario never poisons its neighbours or their ordering.
struct BatchOutcome {
  std::vector<RunResult> results;  ///< default-constructed at failed slots
  /// Per-job exception (null where the run succeeded).
  std::vector<std::exception_ptr> errors;
  std::size_t failure_count = 0;

  bool all_succeeded() const { return failure_count == 0; }
};

/// Hands a worker job `i` just before it runs: either a job that outlives
/// the batch, or `scratch` (the worker's own, reused across its jobs) after
/// building the job into it. Called concurrently for distinct indices.
using JobSource =
    std::function<const BatchJob&(std::size_t i, BatchJob& scratch)>;

/// Executes batches of experiments on a worker pool.
class BatchRunner {
 public:
  /// `worker_count` = 0 picks std::thread::hardware_concurrency() (at least
  /// one worker). Workers are spawned per run() call, never outliving it.
  explicit BatchRunner(unsigned worker_count = 0);

  /// Runs every job; results come back in input order. The first exception
  /// thrown by any run (e.g. an unknown benchmark name) is rethrown after
  /// every job has executed -- even with a single worker there is no
  /// fast-fail, so a batch always costs the same wall-clock whether or not
  /// something throws. Use run_collecting() to inspect partial results.
  ///
  /// `shared_plan`, when non-null, supplies the batch invariants (floorplan
  /// templates, resolved benchmarks, calibrated models) instead of building
  /// a fresh RunPlan per call -- this is how a persistent server keeps its
  /// caches warm across requests. The caller owns its population: jobs that
  /// need an identified model must either carry one or find it in the plan
  /// (the per-call auto-calibration step is skipped, since a shared plan is
  /// read-only while workers run). Results are identical either way.
  std::vector<RunResult> run(const std::vector<BatchJob>& jobs,
                             const RunPlan* shared_plan = nullptr) const;

  /// Like run(), but a throwing job (malformed scenario, unknown benchmark)
  /// is captured in its own slot instead of aborting the batch: the pool
  /// always drains, and every other slot holds the same result it would in
  /// a failure-free batch. This is the entry point for fuzzing sweeps that
  /// must survive pathological catalog entries.
  BatchOutcome run_collecting(const std::vector<BatchJob>& jobs,
                              const RunPlan* shared_plan = nullptr) const;

  /// run_collecting over `count` jobs that workers build themselves through
  /// `job_at` (fleet devices are materialized on the pool this way). A
  /// throw from `job_at` is captured in slot i like a throwing run. `plan`
  /// is read-only here, as a shared plan is above.
  BatchOutcome run_collecting(std::size_t count, const JobSource& job_at,
                              const RunPlan& plan) const;

  /// Convenience overload: the same model pointer for every config.
  std::vector<RunResult> run(
      const std::vector<ExperimentConfig>& configs,
      const sysid::IdentifiedPlatformModel* model = nullptr) const;

  unsigned worker_count() const { return worker_count_; }

  /// Workers a run() will actually spawn: the configured count clamped to
  /// the host's hardware concurrency. Oversubscribing compute-bound
  /// simulation threads onto fewer cores only adds context-switch thrash
  /// (the classic "2 workers slower than 1 worker" on a 1-core host), so
  /// the pool never does; artifacts that record a worker count should
  /// record this one next to the requested one.
  unsigned effective_worker_count() const;

 private:
  unsigned worker_count_;
};

/// Cartesian sweep grid over the experiment dimensions the DTPM evaluations
/// iterate on. Empty dimensions fall back to the corresponding field of
/// `base`, so a grid only names the axes it actually sweeps.
struct SweepGrid {
  ExperimentConfig base;  ///< template for every generated config

  std::vector<std::string> benchmarks;
  /// PlatformRegistry names ("odroid-xu-e", "dragon", ...); every scenario x
  /// policy cell runs once per platform. Empty falls back to base's
  /// platform, so existing grids expand exactly as before.
  std::vector<std::string> platforms;
  /// PolicyRegistry names; user-registered policies sweep exactly like the
  /// built-ins. Empty falls back to base's policy.
  std::vector<std::string> policy_names;
  std::vector<std::uint64_t> seeds;
  std::vector<core::DtpmParams> dtpm_params;
};

/// Expands the grid in row-major order (benchmark outermost, then platform,
/// then policy, then DtpmParams, then seed), giving every config a
/// deterministic seed from the grid -- the same grid always produces the
/// same configs. Every generated config carries its policy by registry name
/// and its platform by descriptor (set_platform, which also adopts the
/// platform's default t_max unless a dtpm axis overrides it).
std::vector<ExperimentConfig> sweep(const SweepGrid& grid);

}  // namespace dtpm::sim
