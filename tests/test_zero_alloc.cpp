// Zero-allocation guard for the simulation hot path: after warm-up, a
// steady-state Simulation::step() (trace recording and prediction
// observation off) must not touch the heap at all -- the property the
// StepBuffers / write-into-overload refactor establishes and this test pins
// against regressions. The global operator new/delete overrides count every
// allocation in the process; the measurement window spans 1000 control
// intervals after 300 warm-up steps have grown every reusable buffer to its
// high-water mark.
//
// This file must not be linked with other tests (each test binary is its
// own executable here, so the global override is safe).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "sim/batch_lane.hpp"
#include "sim/engine.hpp"
#include "sim/simulation.hpp"
#include "workload/benchmark.hpp"

namespace {

std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dtpm::sim {
namespace {

/// A long constant-demand workload so the measurement window never crosses a
/// phase boundary (phase changes may legitimately regrow the demand buffer).
std::shared_ptr<const workload::Benchmark> steady_benchmark() {
  workload::Benchmark bench;
  bench.name = "zero-alloc-steady";
  bench.total_work_units = 1e9;  // never finishes within the test
  bench.cpu_cycles_per_unit = 2e7;
  bench.mem_seconds_per_unit = 2e-4;
  workload::Phase phase;
  phase.work_fraction = 1.0;
  phase.cpu_activity = 0.6;
  phase.mem_intensity = 0.3;
  phase.threads = 4;
  bench.phases = {phase};
  return std::make_shared<const workload::Benchmark>(bench);
}

TEST(ZeroAllocation, SteadyStateStepAllocatesNothing) {
  ExperimentConfig config;
  config.benchmark = "zero-alloc-steady";
  config.scenario = steady_benchmark();
  config.policy_name = "default+fan";
  config.record_trace = false;         // recording grows the trace table
  config.observe_predictions = false;  // the observer queues predictions
  config.max_sim_time_s = 1e9;
  config.seed = 3;

  Simulation sim(config);

  // Warm-up: pass the 20 s warm-up window, reach the benchmark phase, and
  // let every reusable buffer grow to its high-water mark (including the
  // fan-policy state machine stepping through its speeds).
  for (int s = 0; s < 300; ++s) {
    ASSERT_TRUE(sim.step()) << "run terminated during warm-up";
  }

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int s = 0; s < 1000; ++s) {
    if (!sim.step()) break;
  }
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "the steady-state Simulation::step() hot path heap-allocated; a "
         "write-into overload or scratch buffer regressed";

  // The run is still healthy: temperatures sane, progress advancing.
  EXPECT_GT(sim.view().progress, 0.0);
  EXPECT_GT(sim.view().max_temp_c, 30.0);
  EXPECT_LT(sim.view().max_temp_c, 115.0);
}

TEST(ZeroAllocation, BatchedLaneSteadyStateWaveAllocatesNothing) {
  // The lockstep lane's whole interval -- batched noise staging, per-lane
  // begin_step, the SoA kernel with its fan-state insertion sort and the
  // schedule memo -- must be as heap-silent as the scalar path once every
  // scratch vector (noise block, lane columns, memo hashes, propagator
  // cache) has hit its high-water mark.
  constexpr int kLanes = 4;
  std::vector<std::unique_ptr<Simulation>> sims;
  for (int i = 0; i < kLanes; ++i) {
    ExperimentConfig config;
    config.benchmark = "zero-alloc-steady";
    config.scenario = steady_benchmark();
    config.policy_name = "default+fan";
    config.record_trace = false;
    config.observe_predictions = false;
    config.max_sim_time_s = 1e9;
    config.seed = 3 + std::uint64_t(i);  // seeds diverge the fan buckets
    config.engine = Engine::kBatched;
    sims.push_back(std::make_unique<Simulation>(config));
  }

  BatchPlantStepper stepper;
  std::vector<Simulation*> lanes, wave;
  auto one_wave = [&] {
    lanes.clear();
    for (auto& sim : sims) lanes.push_back(sim.get());
    stepper.stage_wave_noise(lanes);
    wave.clear();
    for (Simulation* sim : lanes) {
      ASSERT_TRUE(sim->begin_step()) << "run terminated mid-test";
      wave.push_back(sim);
    }
    stepper.run_interval(wave);
  };

  // Longer warm-up than the scalar test: the wave must also visit every
  // fan speed the closed loop will ever command, so the conductance-keyed
  // propagator cache is fully populated before counting starts.
  for (int s = 0; s < 800; ++s) one_wave();

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int s = 0; s < 1000; ++s) one_wave();
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "the steady-state lockstep wave heap-allocated; a lane scratch "
         "buffer, the noise block or the memo regressed";

  for (int i = 0; i < kLanes; ++i) {
    EXPECT_GT(sims[i]->view().progress, 0.0);
    EXPECT_LT(sims[i]->view().max_temp_c, 115.0);
  }
}

TEST(ZeroAllocation, TraceRecordingAllocatesPerRowOnly) {
  // With recording on, the only hot-path allocations left are the trace
  // table's row appends (amortized vector growth aside): bound the count
  // instead of pinning it to zero.
  ExperimentConfig config;
  config.benchmark = "zero-alloc-steady";
  config.scenario = steady_benchmark();
  config.policy_name = "default+fan";
  config.record_trace = true;
  config.max_sim_time_s = 1e9;
  config.seed = 3;

  Simulation sim(config);
  for (int s = 0; s < 300; ++s) {
    ASSERT_TRUE(sim.step());
  }

  constexpr int kSteps = 1000;
  g_alloc_count.store(0);
  g_counting.store(true);
  for (int s = 0; s < kSteps; ++s) {
    if (!sim.step()) break;
  }
  g_counting.store(false);

  // One row copy per step plus amortized table growth: well under 3/step.
  EXPECT_LT(g_alloc_count.load(), std::size_t(3 * kSteps));
}

}  // namespace
}  // namespace dtpm::sim
