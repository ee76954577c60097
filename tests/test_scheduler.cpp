#include "soc/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dtpm::soc {
namespace {

workload::ThreadDemand thread(double duty, double activity = 0.5) {
  workload::ThreadDemand td;
  td.duty = duty;
  td.cpu_activity = activity;
  return td;
}

/// place_threads_into with fresh buffers.
Placement place_threads(const std::vector<workload::ThreadDemand>& threads,
                        const SocConfig& config) {
  Placement out;
  std::vector<std::size_t> order;
  place_threads_into(threads, config, out, order);
  return out;
}

TEST(Scheduler, EmptyInputs) {
  SocConfig config;
  EXPECT_TRUE(place_threads({}, config).threads.empty());
}

TEST(Scheduler, SpreadsThreadsAcrossCores) {
  SocConfig config;  // big cluster, 4 cores
  const Placement p = place_threads(
      {thread(1.0), thread(1.0), thread(1.0), thread(1.0)}, config);
  // One thread per core, each fully granted.
  for (int c = 0; c < kBigCoreCount; ++c) EXPECT_DOUBLE_EQ(p.core_load[c], 1.0);
  for (const auto& placed : p.threads) EXPECT_DOUBLE_EQ(placed.share, 1.0);
  EXPECT_DOUBLE_EQ(p.max_util, 1.0);
  EXPECT_DOUBLE_EQ(p.avg_util, 1.0);
}

TEST(Scheduler, HeaviestThreadsPlacedFirst) {
  SocConfig config;
  const Placement p =
      place_threads({thread(0.2), thread(1.0), thread(0.3)}, config);
  // All fit on distinct cores -> every thread gets its full duty.
  for (const auto& placed : p.threads) {
    EXPECT_DOUBLE_EQ(placed.share, placed.demand.duty);
  }
  EXPECT_NEAR(p.avg_util, (0.2 + 1.0 + 0.3) / 4.0, 1e-12);
}

TEST(Scheduler, OversubscriptionScalesShares) {
  SocConfig config;
  config.big_core_online = {true, false, false, false};  // single core
  const Placement p = place_threads({thread(1.0), thread(1.0)}, config);
  EXPECT_DOUBLE_EQ(p.core_load[0], 2.0);
  EXPECT_DOUBLE_EQ(p.core_util[0], 1.0);
  for (const auto& placed : p.threads) {
    EXPECT_EQ(placed.core, 0);
    EXPECT_DOUBLE_EQ(placed.share, 0.5);
  }
}

TEST(Scheduler, OfflineCoresReceiveNothing) {
  SocConfig config;
  config.big_core_online = {true, false, true, false};
  const Placement p = place_threads(
      {thread(1.0), thread(1.0), thread(1.0), thread(1.0)}, config);
  EXPECT_DOUBLE_EQ(p.core_load[1], 0.0);
  EXPECT_DOUBLE_EQ(p.core_load[3], 0.0);
  EXPECT_DOUBLE_EQ(p.core_load[0], 2.0);
  EXPECT_DOUBLE_EQ(p.core_load[2], 2.0);
  // Hotplugging half the cores away halves the granted shares.
  for (const auto& placed : p.threads) EXPECT_DOUBLE_EQ(placed.share, 0.5);
}

TEST(Scheduler, LittleClusterUsesAllFourCores) {
  SocConfig config;
  config.active_cluster = ClusterId::kLittle;
  config.big_core_online = {false, false, false, false};  // ignored
  const Placement p = place_threads(
      {thread(1.0), thread(1.0), thread(1.0), thread(1.0)}, config);
  for (int c = 0; c < kLittleCoreCount; ++c) {
    EXPECT_DOUBLE_EQ(p.core_load[c], 1.0);
  }
}

TEST(Scheduler, BalancesMixedDuties) {
  SocConfig config;
  config.big_core_online = {true, true, false, false};
  // 0.9 and 0.8 must land on different cores; the small ones fill up evenly.
  const Placement p = place_threads(
      {thread(0.1), thread(0.9), thread(0.8), thread(0.1)}, config);
  double max_load = 0.0;
  for (int c = 0; c < 2; ++c) max_load = std::max(max_load, p.core_load[c]);
  EXPECT_LE(max_load, 1.0);  // greedy LPT achieves the balanced packing here
}

TEST(Scheduler, UtilizationCapsAtOne) {
  SocConfig config;
  std::vector<workload::ThreadDemand> many(12, thread(1.0));
  const Placement p = place_threads(many, config);
  EXPECT_DOUBLE_EQ(p.max_util, 1.0);
  EXPECT_DOUBLE_EQ(p.avg_util, 1.0);
}

}  // namespace
}  // namespace dtpm::soc
