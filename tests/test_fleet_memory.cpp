// Memory-flatness guard for fleet mode, analogous to test_zero_alloc: the
// global operator new/delete overrides track the number of live (net
// outstanding) heap allocations, sampled at every wave boundary of a
// multi-wave run_fleet. Once the warm-up waves have populated the caches
// (floorplan template, scenario catalog, sketch levels), the live-allocation
// count must stay flat to the end -- if the fleet retained even one
// allocation per device, the tail waves would add hundreds and trip the
// bound. This is what "a 100k-device fleet is memory-flat" means
// operationally.
//
// A second guard checks the other axis: what run_fleet holds must not grow
// with device_count either (the fleet is sampled wave by wave).
//
// This file must not be linked with other tests (each test binary is its
// own executable here, so the global override is safe).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "serve/fleet.hpp"
#include "sim/config.hpp"

namespace {

std::atomic<long long> g_news{0};
std::atomic<long long> g_deletes{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

namespace {
void count_delete() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_deletes.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void operator delete(void* p) noexcept {
  count_delete();
  std::free(p);
}
void operator delete[](void* p) noexcept {
  count_delete();
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  count_delete();
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  count_delete();
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  count_delete();
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  count_delete();
  std::free(p);
}

namespace dtpm::serve {
namespace {

TEST(FleetMemory, LiveAllocationsStayFlatAcrossWaves) {
  FleetSpec spec;
  spec.device_count = 600;
  spec.wave_size = 50;  // 12 waves
  spec.seed = 11;
  spec.base.policy_name = "reactive";
  spec.base.engine = sim::Engine::kPropagator;
  spec.base.warmup_s = 0.25;
  spec.base.max_sim_time_s = 1.5;
  spec.platforms = {{"odroid-xu-e", 1.0}};
  spec.families = {{"bursty", 1.0}};
  // One ambient bin: the per-(platform, ambient) descriptor cache is full
  // after wave 1, so any later growth is a genuine leak, not a cache fill.
  spec.ambient_c = {28.0, 28.0};
  spec.background_duty = {0.05, 0.20};
  spec.scenario_nominal_duration_s = 1.5;

  std::vector<long long> live_after_wave;
  live_after_wave.reserve(16);  // grown before counting starts

  FleetRunOptions options;
  options.workers = 1;  // keep thread bookkeeping out of the measurement
  options.on_wave = [&live_after_wave](const FleetProgress&) {
    live_after_wave.push_back(g_news.load(std::memory_order_relaxed) -
                              g_deletes.load(std::memory_order_relaxed));
  };

  g_news.store(0);
  g_deletes.store(0);
  g_counting.store(true);
  const FleetRunResult result = run_fleet(spec, options);
  g_counting.store(false);

  EXPECT_EQ(600u, result.devices_run);
  EXPECT_EQ(0u, result.aggregate.failed());
  ASSERT_EQ(12u, live_after_wave.size());

  // Waves 1-4 warm the caches (floorplan template, calibration, sketch
  // levels). From there to the end -- 400 more devices -- the live count may
  // only drift by the logarithmic tail of sketch-level growth. The bound is
  // far below one allocation per device, so any per-device retention fails.
  const long long baseline = live_after_wave[3];
  const long long final_live = live_after_wave.back();
  EXPECT_LE(final_live, baseline + 256)
      << "live allocations grew from " << baseline << " after wave 4 to "
      << final_live << " after wave 12 -- fleet mode is retaining "
         "per-device state";
}

/// Live allocations after run_fleet's first wave of `device_count` devices
/// (wave size 20, one worker).
long long live_after_first_wave(std::uint64_t device_count) {
  FleetSpec spec;
  spec.device_count = device_count;
  spec.wave_size = 20;
  spec.seed = 5;
  spec.base.policy_name = "reactive";
  spec.base.engine = sim::Engine::kPropagator;
  spec.base.warmup_s = 0.1;
  spec.base.max_sim_time_s = 0.3;
  spec.platforms = {{"odroid-xu-e", 1.0}};
  // A family name past the small-string buffer: each profile held at once
  // would own one heap allocation.
  spec.families = {{"duty-cycle-resonance", 1.0}};
  spec.ambient_c = {28.0, 28.0};
  spec.scenario_nominal_duration_s = 0.3;

  long long live = -1;
  FleetRunOptions options;
  options.workers = 1;
  options.on_wave = [&live](const FleetProgress& progress) {
    if (progress.done == 20) {
      live = g_news.load(std::memory_order_relaxed) -
             g_deletes.load(std::memory_order_relaxed);
    }
  };
  g_news.store(0);
  g_deletes.store(0);
  g_counting.store(true);
  const FleetRunResult result = run_fleet(spec, options);
  g_counting.store(false);
  EXPECT_EQ(device_count, result.devices_run);
  return live;
}

TEST(FleetMemory, LiveAllocationsDoNotGrowWithDeviceCount) {
  // After one wave both fleets have folded the same 20 devices; what else
  // is alive is what run_fleet holds for devices not yet run. Sampling the
  // whole fleet up front would hold one profile (and here one family-name
  // allocation) per device.
  const long long small = live_after_first_wave(40);
  const long long large = live_after_first_wave(400);
  ASSERT_GE(small, 0);
  ASSERT_GE(large, 0);
  EXPECT_LE(large, small + 16)
      << "live allocations after one wave grew from " << small << " (40 "
         "devices) to " << large << " (400 devices) -- run_fleet holds "
         "per-device state for the whole fleet";
}

}  // namespace
}  // namespace dtpm::serve
