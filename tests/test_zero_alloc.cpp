// Zero-allocation guard for the simulation hot path: after warm-up, a
// steady-state Simulation::step() (trace recording and prediction
// observation off) must not touch the heap at all -- the property the
// StepBuffers / write-into-overload refactor establishes and this test pins
// against regressions. The global operator new/delete overrides count every
// allocation in the process; the measurement window spans 1000 control
// intervals after 300 warm-up steps have grown every reusable buffer to its
// high-water mark. Each interval reads every sensor bank, and the slowest
// to refill, the external meter, draws one deviate per interval from blocks
// of util::NormalStream::kBlock = 63: the window crosses at least 15 refills
// of every bank.
//
// This file must not be linked with other tests (each test binary is its
// own executable here, so the global override is safe).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>

#include "sim/engine.hpp"
#include "sim/simulation.hpp"
#include "sysid/leakage_fit.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "workload/benchmark.hpp"

namespace {

std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

}  // namespace

// Every replacement is kept out of line: once one inlines into a caller,
// gcc pairs its malloc/free with the other side's operator new/delete and
// reports a -Wmismatched-new-delete false positive.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
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

/// Every engine a run can select: propagator (the default) and
/// reference-rk4 (its oracle, which the golden traces that name it pin).
class ZeroAllocationPerEngine : public ::testing::TestWithParam<Engine> {};

TEST_P(ZeroAllocationPerEngine, SteadyStateStepAllocatesNothing) {
  ExperimentConfig config;
  config.benchmark = "zero-alloc-steady";
  config.scenario = steady_benchmark();
  config.policy_name = "default+fan";
  config.record_trace = false;         // recording grows the trace table
  config.observe_predictions = false;  // the observer queues predictions
  config.max_sim_time_s = 1e9;
  config.seed = 3;
  config.engine = GetParam();

  Simulation sim(config);

  // Warm-up: pass the 20 s warm-up window, reach the benchmark phase, and
  // let every reusable buffer grow to its high-water mark (including the
  // fan-policy state machine stepping through its speeds). The propagator
  // also needs the run to visit every fan speed the closed loop will ever
  // command, so its conductance-keyed Phi/Gamma table is full before
  // counting starts -- hence the longer warm-up.
  const int warmup = GetParam() == Engine::kPropagator ? 800 : 300;
  for (int s = 0; s < warmup; ++s) {
    ASSERT_TRUE(sim.step()) << "run terminated during warm-up";
  }

  constexpr int kSteps = 1000;
  static_assert(kSteps >= 15 * int(util::NormalStream::kBlock),
                "the window must cross a noise-block refill of every bank");
  int stepped = 0;
  g_alloc_count.store(0);
  g_counting.store(true);
  for (; stepped < kSteps; ++stepped) {
    if (!sim.step()) break;
  }
  g_counting.store(false);

  EXPECT_EQ(stepped, kSteps) << "run terminated inside the window";
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "the steady-state Simulation::step() hot path heap-allocated; a "
         "write-into overload or scratch buffer regressed";

  // The run is still healthy: temperatures sane, progress advancing.
  EXPECT_GT(sim.view().progress, 0.0);
  EXPECT_GT(sim.view().max_temp_c, 30.0);
  EXPECT_LT(sim.view().max_temp_c, 115.0);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ZeroAllocationPerEngine,
    ::testing::Values(Engine::kReferenceRk4, Engine::kPropagator),
    [](const ::testing::TestParamInfo<Engine>& engine) {
      return engine.param == Engine::kReferenceRk4 ? "ReferenceRk4"
                                                   : "Propagator";
    });

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

/// Calibration's leakage fit builds its least-squares system once per fit
/// and reuses the buffers across the golden-section search, so the fit's
/// allocation count does not depend on how many solves the search takes.
TEST(ZeroAllocation, LeakageFitSearchAllocatesNothing) {
  std::vector<sysid::FurnaceSample> samples;
  for (double v : {0.9, 1.05}) {
    for (double t = 40.0; t <= 80.0; t += 5.0) {
      const double t_k = t + 273.15;
      samples.push_back({t, 0.2 * v * v + v * (2e-3 * t_k * t_k *
                                               std::exp(-2500.0 / t_k) + 0.004),
                         v, v * 1e9});
    }
  }
  auto allocations = [&](unsigned iterations) {
    sysid::LeakageFitOptions options;
    options.golden_iterations = iterations;
    g_alloc_count.store(0);
    g_counting.store(true);
    const sysid::LeakageFitResult fit = sysid::fit_leakage(samples, options);
    g_counting.store(false);
    EXPECT_GT(fit.params.c1, 0.0);
    return g_alloc_count.load();
  };
  EXPECT_EQ(allocations(80), allocations(1))
      << "a solve of fit_leakage's golden-section search heap-allocated";
}

/// Calibration's ARX-shaped least-squares solve (9,600 regression pairs
/// plus 8 ridge rows, 8 regressors, 4 targets): once `x` has its shape and
/// the reflector scratch its length, a solve on reused buffers allocates
/// nothing.
TEST(ZeroAllocation, ArxShapedQrSolveOnReusedBuffersAllocatesNothing) {
  util::Rng rng(5);
  util::Matrix a0(9608, 8);
  util::Matrix rhs0(9608, 4);
  for (std::size_t i = 0; i < 9600; ++i) {
    for (std::size_t j = 0; j < 8; ++j) a0(i, j) = rng.gaussian(0.0, 3.0);
    for (std::size_t j = 0; j < 4; ++j) rhs0(i, j) = rng.uniform(-5.0, 5.0);
  }
  for (std::size_t j = 0; j < 8; ++j) a0(9600 + j, j) = 1e-4;
  util::Matrix a = a0;
  util::Matrix rhs = rhs0;
  util::Matrix x;
  std::vector<double> householder;
  util::Matrix::qr_solve_into(a, rhs, householder, x);
  const util::Matrix first = x;
  a = a0;
  rhs = rhs0;
  g_alloc_count.store(0);
  g_counting.store(true);
  util::Matrix::qr_solve_into(a, rhs, householder, x);
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "a second same-shape QR solve heap-allocated";
  EXPECT_TRUE(x.approx_equal(first, 0.0));
}

}  // namespace
}  // namespace dtpm::sim
