#include "workload/background.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace dtpm::workload {
namespace {

/// One interval's background threads.
std::vector<ThreadDemand> next_threads(BackgroundLoad& load) {
  std::vector<ThreadDemand> threads;
  load.threads_into(threads);
  return threads;
}

TEST(BackgroundLoad, ProducesConfiguredThreadCount) {
  BackgroundParams params;
  params.thread_count = 3;
  BackgroundLoad bg(params, util::Rng(1));
  EXPECT_EQ(next_threads(bg).size(), 3u);
}

TEST(BackgroundLoad, DutiesWithinBounds) {
  BackgroundParams params;
  BackgroundLoad bg(params, util::Rng(2));
  for (int i = 0; i < 500; ++i) {
    for (const auto& td : next_threads(bg)) {
      EXPECT_GT(td.duty, 0.0);
      EXPECT_LE(td.duty, 1.0);
      EXPECT_FALSE(td.counts_progress);
      EXPECT_EQ(td.cpu_cycles_per_unit, 0.0);
    }
  }
}

TEST(BackgroundLoad, HeavyLoadAddsFullDutyThreads) {
  BackgroundParams params;
  params.heavy_load = true;
  params.heavy_threads = 2;
  BackgroundLoad bg(params, util::Rng(3));
  const auto threads = next_threads(bg);
  ASSERT_EQ(threads.size(), std::size_t(params.thread_count + 2));
  int full_duty = 0;
  for (const auto& td : threads) {
    if (td.duty == 1.0) ++full_duty;
  }
  EXPECT_GE(full_duty, 2);
}

TEST(BackgroundLoad, DeterministicForSameSeed) {
  BackgroundParams params;
  BackgroundLoad a(params, util::Rng(42));
  BackgroundLoad b(params, util::Rng(42));
  for (int i = 0; i < 100; ++i) {
    const auto ta = next_threads(a);
    const auto tb = next_threads(b);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t t = 0; t < ta.size(); ++t) {
      EXPECT_DOUBLE_EQ(ta[t].duty, tb[t].duty);
    }
  }
}

TEST(BackgroundLoad, SpikesOccurOccasionally) {
  BackgroundParams params;
  params.spike_probability = 0.05;
  params.spike_duty = 0.35;
  BackgroundLoad bg(params, util::Rng(9));
  int spikes = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto threads = next_threads(bg);
    if (threads.front().duty == params.spike_duty) ++spikes;
  }
  EXPECT_GT(spikes, 50);    // spikes happen and persist a few intervals
  EXPECT_LT(spikes, 1500);  // but are not the common case
}

TEST(BackgroundLoad, DifferentSeedsDiverge) {
  BackgroundParams params;
  BackgroundLoad a(params, util::Rng(1));
  BackgroundLoad b(params, util::Rng(2));
  int diverged = 0;
  for (int i = 0; i < 100; ++i) {
    const auto ta = next_threads(a);
    const auto tb = next_threads(b);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t t = 0; t < ta.size(); ++t) {
      if (ta[t].duty != tb[t].duty) ++diverged;
    }
  }
  EXPECT_GT(diverged, 0) << "seeds 1 and 2 produced identical duty streams";
}

TEST(BackgroundLoad, DutyStaysWithinSpikeBand) {
  // Per-thread duty is base +/- jitter, except the spike thread which is
  // pinned to spike_duty: everything lands in [base - jitter, spike_duty]
  // (clamped at the 0.01 runnable floor).
  BackgroundParams params;
  params.spike_probability = 0.1;  // spike often so the test sees both modes
  const double lo = std::max(0.01, params.base_duty - params.duty_jitter);
  const double hi = std::max(params.spike_duty,
                             params.base_duty + params.duty_jitter);
  BackgroundLoad bg(params, util::Rng(4));
  for (int i = 0; i < 2000; ++i) {
    for (const auto& td : next_threads(bg)) {
      ASSERT_GE(td.duty, lo);
      ASSERT_LE(td.duty, hi);
    }
  }
}

}  // namespace
}  // namespace dtpm::workload
