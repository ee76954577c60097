#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/run_plan.hpp"
#include "workload/scenario.hpp"

namespace dtpm::sim {
namespace {

const sysid::IdentifiedPlatformModel& model() {
  return default_calibration().model;
}

ExperimentConfig quick_config(const char* benchmark, const char* policy,
                              std::uint64_t seed = 1) {
  ExperimentConfig c;
  c.benchmark = benchmark;
  c.policy_name = policy;
  c.record_trace = false;
  c.seed = seed;
  return c;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.execution_time_s, b.execution_time_s);
  EXPECT_EQ(a.avg_platform_power_w, b.avg_platform_power_w);
  EXPECT_EQ(a.avg_soc_power_w, b.avg_soc_power_w);
  EXPECT_EQ(a.platform_energy_j, b.platform_energy_j);
  EXPECT_EQ(a.violation_time_s, b.violation_time_s);
  EXPECT_EQ(a.max_temp_stats.count(), b.max_temp_stats.count());
  EXPECT_EQ(a.max_temp_stats.mean(), b.max_temp_stats.mean());
  EXPECT_EQ(a.max_temp_stats.max(), b.max_temp_stats.max());
}

TEST(BatchRunner, ParallelMatchesSerialBitForBit) {
  // A mixed grid: policies, seeds, and benchmarks of different lengths so
  // the atomic work queue actually interleaves runs across workers.
  std::vector<ExperimentConfig> configs{
      quick_config("crc32", "no-fan", 1),
      quick_config("dijkstra", "default+fan", 2),
      quick_config("sha", "dtpm", 3),
      quick_config("crc32", "reactive", 4),
      quick_config("qsort", "no-fan", 5),
      quick_config("sha", "dtpm", 3),  // duplicate of [2]
  };

  std::vector<RunResult> serial;
  for (const ExperimentConfig& c : configs) {
    serial.push_back(run_experiment(c, &model()));
  }

  const std::vector<RunResult> parallel =
      BatchRunner(4).run(configs, &model());

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
  // Identical configs (same seed) land identical results regardless of
  // which worker picked them up.
  expect_identical(parallel[2], parallel[5]);
}

TEST(RunPlan, SharedPlanIsBitIdenticalToPlanlessRuns) {
  // The batch layer's hoisted invariants (floorplan template, resolved
  // benchmark) must be an optimization only: a run through a RunPlan lands
  // the same result as one that builds everything itself.
  const ExperimentConfig config = quick_config("crc32", "default+fan");
  const RunPlan plan(config);
  expect_identical(run_experiment(config, &model()),
                   run_experiment(config, &model(), &plan));
}

TEST(RunPlan, ResolvesCachedBenchmarksAndFloorplans) {
  const ExperimentConfig config = quick_config("crc32", "no-fan");
  RunPlan plan(config);
  EXPECT_NE(plan.benchmark_for("crc32"), nullptr);
  EXPECT_EQ(plan.benchmark_for("no-such-benchmark"), nullptr);
  EXPECT_NE(plan.template_for(*config.platform), nullptr);

  // A diverged platform must fall back (null), never hand out a mismatched
  // template.
  PlatformDescriptor other = *config.platform;
  other.floorplan.nodes.back().capacitance_j_per_k *= 2.0;
  EXPECT_EQ(plan.template_for(other), nullptr);
}

TEST(RunPlan, EqualDescriptorsShareOneTemplate) {
  // Fresh descriptors with an equal floorplan (a warm server plan sees a new
  // set per fleet) resolve to the template already built, whether or not
  // they were cached themselves.
  const ExperimentConfig config = quick_config("crc32", "no-fan");
  RunPlan plan(config);
  const PlantTemplate* built = plan.template_for(*config.platform);
  ASSERT_NE(built, nullptr);
  for (int round = 0; round < 3; ++round) {
    const auto alias = std::make_shared<PlatformDescriptor>(*config.platform);
    const PlatformDescriptor uncached = *config.platform;
    plan.cache_platform(alias);
    EXPECT_EQ(plan.template_for(*alias), built);
    EXPECT_EQ(plan.template_for(uncached), built);
    EXPECT_EQ(plan.template_for(*config.platform), built);
  }
}

TEST(RunPlan, UnknownBenchmarkStillFailsInItsOwnSlot) {
  // RunPlan pre-resolution must not turn an unknown name into a batch-level
  // throw: the owning slot carries the error, neighbours run normally.
  std::vector<BatchJob> jobs;
  jobs.push_back({quick_config("crc32", "no-fan"), nullptr});
  jobs.push_back({quick_config("definitely-not-a-benchmark",
                               "no-fan"),
                  nullptr});
  const BatchOutcome outcome = BatchRunner(2).run_collecting(jobs);
  EXPECT_EQ(outcome.failure_count, 1u);
  EXPECT_EQ(outcome.errors[0], nullptr);
  EXPECT_NE(outcome.errors[1], nullptr);
  EXPECT_TRUE(outcome.results[0].control_steps > 0);
}

TEST(RunResult, CostCountersFilled) {
  const RunResult result =
      run_experiment(quick_config("crc32", "no-fan"), &model());
  EXPECT_GT(result.control_steps, 0u);
  // 100 ms interval over 10 ms substeps: up to 10 substeps per interval.
  EXPECT_GT(result.plant_substeps, result.control_steps);
  EXPECT_LE(result.plant_substeps, result.control_steps * 10);
  EXPECT_GT(result.wall_time_s, 0.0);
}

TEST(BatchRunner, ResultsComeBackInInputOrder) {
  // patricia (long) first, crc32 (short) last: if results were keyed by
  // completion order the short run would come back first.
  std::vector<ExperimentConfig> configs{
      quick_config("patricia", "no-fan"),
      quick_config("crc32", "no-fan"),
  };
  configs[0].max_sim_time_s = 60.0;  // keep the long run bounded

  const std::vector<RunResult> results = BatchRunner(2).run(configs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].completed);  // patricia hit the 60 s cap
  EXPECT_TRUE(results[1].completed);
  expect_identical(results[1], run_experiment(configs[1]));
}

TEST(BatchRunner, EmptyBatchAndDefaults) {
  EXPECT_TRUE(BatchRunner().run(std::vector<ExperimentConfig>{}).empty());
  EXPECT_GE(BatchRunner().worker_count(), 1u);
  EXPECT_EQ(BatchRunner(3).worker_count(), 3u);
}

TEST(BatchRunner, PerJobModelPointers) {
  std::vector<BatchJob> jobs{
      {quick_config("crc32", "no-fan"), nullptr},
      {quick_config("sha", "dtpm"), &model()},
  };
  const std::vector<RunResult> results = BatchRunner(2).run(jobs);
  EXPECT_TRUE(results[0].completed);
  EXPECT_TRUE(results[1].completed);
}

TEST(BatchRunner, WorkerExceptionsPropagate) {
  std::vector<ExperimentConfig> configs{
      quick_config("crc32", "no-fan"),
      quick_config("no-such-benchmark", "no-fan"),
  };
  EXPECT_THROW(BatchRunner(2).run(configs), std::invalid_argument);
}

// A scenario that throws inside a worker (malformed inline benchmark) must
// neither deadlock the pool nor disturb the input-order slots of the runs
// around it.
TEST(BatchRunner, ThrowingScenarioDoesNotCorruptNeighbours) {
  auto broken_scenario = [] {
    auto bench = std::make_shared<workload::Benchmark>();
    bench->name = "broken";
    bench->phases.push_back({});             // one phase...
    bench->phases.back().work_fraction = 0.5;  // ...not summing to 1
    return bench;
  };
  ExperimentConfig bad = quick_config("ignored-label", "no-fan");
  bad.scenario = broken_scenario();

  std::vector<ExperimentConfig> configs{
      quick_config("crc32", "no-fan", 1),
      bad,
      quick_config("sha", "no-fan", 2),
      bad,
      quick_config("qsort", "no-fan", 3),
  };

  // run(): first error surfaces only after the pool has drained.
  EXPECT_THROW(BatchRunner(2).run(configs), std::invalid_argument);

  // run_collecting(): errors land in their own slots, every other slot is
  // bit-identical to a serial run of that config alone.
  const BatchOutcome outcome = BatchRunner(2).run_collecting([&] {
    std::vector<BatchJob> jobs;
    for (const ExperimentConfig& c : configs) jobs.push_back({c, nullptr});
    return jobs;
  }());
  ASSERT_EQ(outcome.results.size(), configs.size());
  ASSERT_EQ(outcome.errors.size(), configs.size());
  EXPECT_EQ(outcome.failure_count, 2u);
  EXPECT_FALSE(outcome.all_succeeded());
  for (std::size_t i : {std::size_t(1), std::size_t(3)}) {
    ASSERT_NE(outcome.errors[i], nullptr);
    EXPECT_THROW(std::rethrow_exception(outcome.errors[i]),
                 std::invalid_argument);
    EXPECT_FALSE(outcome.results[i].completed);  // slot left defaulted
  }
  for (std::size_t i : {std::size_t(0), std::size_t(2), std::size_t(4)}) {
    SCOPED_TRACE(i);
    EXPECT_EQ(outcome.errors[i], nullptr);
    expect_identical(outcome.results[i], run_experiment(configs[i]));
  }
}

TEST(BatchRunner, AllJobsFailingStillDrains) {
  ExperimentConfig bad = quick_config("no-such-benchmark", "no-fan");
  const std::vector<ExperimentConfig> configs(4, bad);
  const BatchOutcome outcome = BatchRunner(2).run_collecting([&] {
    std::vector<BatchJob> jobs;
    for (const ExperimentConfig& c : configs) jobs.push_back({c, nullptr});
    return jobs;
  }());
  EXPECT_EQ(outcome.failure_count, 4u);
  for (const std::exception_ptr& e : outcome.errors) EXPECT_NE(e, nullptr);
}

TEST(Sweep, ExpandsCartesianGridRowMajor) {
  SweepGrid grid;
  grid.base = quick_config("crc32", "no-fan");
  grid.benchmarks = {"crc32", "sha"};
  grid.policy_names = {"no-fan", "default+fan"};
  grid.seeds = {1, 2, 3};

  const std::vector<ExperimentConfig> configs = sweep(grid);
  ASSERT_EQ(configs.size(), 2u * 2u * 3u);
  // Row-major: benchmark outermost, then policy, then seed.
  EXPECT_EQ(configs[0].benchmark, "crc32");
  EXPECT_EQ(configs[0].policy_name, "no-fan");
  EXPECT_EQ(configs[0].seed, 1u);
  EXPECT_EQ(configs[2].seed, 3u);
  EXPECT_EQ(configs[3].policy_name, "default+fan");
  EXPECT_EQ(configs[6].benchmark, "sha");
  // Base fields carry through.
  for (const ExperimentConfig& c : configs) {
    EXPECT_FALSE(c.record_trace);
  }
}

TEST(Sweep, EmptyDimensionsFallBackToBase) {
  SweepGrid grid;
  grid.base = quick_config("qsort", "reactive", 42);
  const std::vector<ExperimentConfig> configs = sweep(grid);
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].benchmark, "qsort");
  EXPECT_EQ(configs[0].policy_name, "reactive");
  EXPECT_EQ(configs[0].seed, 42u);
}

TEST(Sweep, NamedBenchmarksDimensionOverridesInlineScenario) {
  SweepGrid grid;
  grid.base = quick_config("crc32", "no-fan");
  grid.base.scenario = std::make_shared<const workload::Benchmark>(
      workload::make_scenario(workload::ScenarioFamily::kBursty, 1));

  // No benchmarks dimension: the base config (and its inline scenario)
  // passes through untouched.
  ASSERT_NE(sweep(grid)[0].scenario, nullptr);

  // A named benchmarks dimension must actually select those benchmarks, so
  // the inherited inline scenario is dropped.
  grid.benchmarks = {"crc32", "sha"};
  for (const ExperimentConfig& c : sweep(grid)) {
    EXPECT_EQ(c.scenario, nullptr);
  }
}

TEST(Sweep, DtpmParamsAxis) {
  SweepGrid grid;
  grid.base = quick_config("basicmath", "dtpm");
  core::DtpmParams tight;
  tight.t_max_c = 58.0;
  core::DtpmParams loose;
  loose.t_max_c = 70.0;
  grid.dtpm_params = {tight, loose};
  const std::vector<ExperimentConfig> configs = sweep(grid);
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_EQ(configs[0].dtpm.t_max_c, 58.0);
  EXPECT_EQ(configs[1].dtpm.t_max_c, 70.0);
}

}  // namespace
}  // namespace dtpm::sim
