#include "soc/soc.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace dtpm::soc {
namespace {

constexpr std::array<double, kBigCoreCount> kWarmCores{55.0, 55.0, 55.0, 55.0};

workload::Demand cpu_demand(int threads, double activity, double mem_intensity,
                            double cycles = 0.96e9, double mem_seconds = 1.0) {
  workload::Demand d;
  for (int i = 0; i < threads; ++i) {
    workload::ThreadDemand td;
    td.duty = 1.0;
    td.cpu_activity = activity;
    td.mem_intensity = mem_intensity;
    td.counts_progress = true;
    td.cpu_cycles_per_unit = cycles;
    td.mem_seconds_per_unit = mem_seconds * mem_intensity;
    d.threads.push_back(td);
  }
  return d;
}

SocConfig config_at(double big_mhz, int online_cores = 4) {
  SocConfig c;
  c.big_freq_hz = big_mhz * 1e6;
  for (int i = 0; i < kBigCoreCount; ++i) c.big_core_online[i] = i < online_cores;
  return c;
}

double big_rail(const SocStepResult& r) {
  return r.rail_power_w[power::resource_index(power::Resource::kBigCluster)];
}

SocStepResult run(Soc& soc, const workload::Demand& d, double dt = 0.1) {
  return soc.step(d, {}, kWarmCores, 50.0, 50.0, 50.0, dt);
}

TEST(Soc, ApplyValidatesFrequencies) {
  Soc soc;
  SocConfig c = config_at(1600);
  c.big_freq_hz = 1.55e9;  // not a Table 6.1 entry
  EXPECT_THROW(soc.apply(c), std::invalid_argument);
  c = config_at(1600);
  c.gpu_freq_hz = 300e6;
  EXPECT_THROW(soc.apply(c), std::invalid_argument);
  c = config_at(1600, 0);  // all big cores offline while big active
  EXPECT_THROW(soc.apply(c), std::invalid_argument);
}

TEST(Soc, PowerIncreasesWithFrequency) {
  Soc soc;
  const workload::Demand d = cpu_demand(1, 0.8, 0.2);
  double prev = 0.0;
  for (double mhz : {800, 1000, 1200, 1400, 1600}) {
    soc.apply(config_at(mhz));
    const double p = big_rail(run(soc, d));
    EXPECT_GT(p, prev) << mhz;
    prev = p;
  }
}

TEST(Soc, ProgressMonotoneInFrequency) {
  // The bandwidth-saturation model must never reward throttling (this was a
  // real bug: naive proportional contention made lower f faster).
  for (double mem : {0.1, 0.3, 0.45, 0.6}) {
    Soc soc;
    const workload::Demand d = cpu_demand(4, 0.7, mem, 0.88e9, 1.0);
    double prev = 0.0;
    for (double mhz : {800, 1000, 1200, 1400, 1600}) {
      soc.apply(config_at(mhz));
      const double rate = run(soc, d).progress_units;
      EXPECT_GE(rate, prev - 1e-9) << "mem=" << mem << " f=" << mhz;
      prev = rate;
    }
  }
}

TEST(Soc, BandwidthBoundThrottlingIsNearlyFree) {
  // 4 memory-heavy threads saturate the DDR: dropping 1600 -> 1400 MHz must
  // cost almost no progress (the paper's matmul, Fig. 6.8/6.9).
  Soc soc;
  const workload::Demand d = cpu_demand(4, 0.7, 0.45, 0.88e9, 0.55);
  soc.apply(config_at(1600));
  const double fast = run(soc, d).progress_units;
  soc.apply(config_at(1400));
  const double slow = run(soc, d).progress_units;
  EXPECT_GT(slow, 0.97 * fast);
}

TEST(Soc, CpuBoundThrottlingCostsProportionally) {
  Soc soc;
  const workload::Demand d = cpu_demand(1, 0.8, 0.05, 1.5e9, 0.2);
  soc.apply(config_at(1600));
  const double fast = run(soc, d).progress_units;
  soc.apply(config_at(800));
  const double slow = run(soc, d).progress_units;
  EXPECT_LT(slow, 0.60 * fast);  // nearly frequency-proportional
}

TEST(Soc, MultithreadPowerSublinear) {
  // Shared uncore + DDR contention: 4 threads draw well under 4x one thread.
  Soc soc;
  soc.apply(config_at(1600));
  const double p1 = big_rail(run(soc, cpu_demand(1, 0.7, 0.4)));
  const double p4 = big_rail(run(soc, cpu_demand(4, 0.7, 0.4)));
  EXPECT_GT(p4, p1);
  EXPECT_LT(p4, 2.5 * p1);
}

TEST(Soc, OfflineCoreReducesPower) {
  Soc soc;
  const workload::Demand d = cpu_demand(4, 0.8, 0.2);
  soc.apply(config_at(1600, 4));
  const double all_on = big_rail(run(soc, d));
  soc.apply(config_at(1600, 3));
  const SocStepResult r = run(soc, d);
  EXPECT_LT(big_rail(r), all_on);
  // The offline core (index 3) contributes only gated residual leakage.
  EXPECT_LT(r.big_core_power_w[3], 0.02);
}

TEST(Soc, LittleClusterFarCheaperAndSlower) {
  Soc soc;
  const workload::Demand d = cpu_demand(4, 0.8, 0.2);
  soc.apply(config_at(1600));
  const SocStepResult big = run(soc, d);
  SocConfig little_config = config_at(1600);
  little_config.active_cluster = ClusterId::kLittle;
  little_config.little_freq_hz = 1.2e9;
  soc.apply(little_config);
  run(soc, d);  // consume the migration stall
  const SocStepResult little = run(soc, d);
  const double p_little = little.rail_power_w[power::resource_index(
      power::Resource::kLittleCluster)];
  EXPECT_LT(p_little, 0.3 * big_rail(big));
  EXPECT_LT(little.progress_units, 0.6 * big.progress_units);
  // Big cores power-collapsed.
  EXPECT_LT(big_rail(little), 0.03);
}

TEST(Soc, ClusterMigrationStallsProgress) {
  Soc soc;
  const workload::Demand d = cpu_demand(1, 0.5, 0.1);
  soc.apply(config_at(1600));
  const double base = run(soc, d, 0.1).progress_units;
  SocConfig to_little = soc.config();
  to_little.active_cluster = ClusterId::kLittle;
  soc.apply(to_little);
  SocConfig back = soc.config();
  back.active_cluster = ClusterId::kBig;
  soc.apply(back);  // two migrations queued: 2 * 50 ms of stall
  const double stalled = run(soc, d, 0.1).progress_units;
  EXPECT_EQ(stalled, 0.0);  // the whole 100 ms interval is stalled
  EXPECT_GT(run(soc, d, 0.1).progress_units, 0.9 * base);
}

TEST(Soc, GpuGatedProgress) {
  Soc soc;
  workload::Demand d = cpu_demand(2, 0.5, 0.2, 0.8e9);
  d.gpu_load = 0.85;
  d.gpu_cycles_per_unit = 4.2e8;
  soc.apply(config_at(1600));
  const double gated = run(soc, d).progress_units;
  // GPU rate bound: load * f_gpu_max / cycles = 0.85*533e6/4.2e8 per second.
  EXPECT_NEAR(gated, 0.85 * 533e6 / 4.2e8 * 0.1, 1e-3);
  // Dropping the GPU one OPP (533 -> 480) keeps the demand satisfiable:
  // near-zero fps cost, the "free" first throttling step of §5.2.
  SocConfig c = soc.config();
  c.gpu_freq_hz = 480e6;
  soc.apply(c);
  EXPECT_NEAR(run(soc, d).progress_units, gated, 1e-3);
  // Two more steps down (266 MHz) starve it.
  c.gpu_freq_hz = 266e6;
  soc.apply(c);
  EXPECT_LT(run(soc, d).progress_units, 0.7 * gated);
}

TEST(Soc, GpuPowerScalesWithLoadAndFrequency) {
  Soc soc;
  soc.apply(config_at(800));
  workload::Demand idle = cpu_demand(1, 0.3, 0.1);
  workload::Demand busy = idle;
  busy.gpu_load = 0.9;
  const auto gpu_idx = power::resource_index(power::Resource::kGpu);
  SocConfig c = soc.config();
  c.gpu_freq_hz = 533e6;
  soc.apply(c);
  const double p_busy = run(soc, busy).rail_power_w[gpu_idx];
  const double p_idle = run(soc, idle).rail_power_w[gpu_idx];
  EXPECT_GT(p_busy, 3.0 * p_idle);
  c.gpu_freq_hz = 177e6;
  soc.apply(c);
  EXPECT_LT(run(soc, busy).rail_power_w[gpu_idx], p_busy);
}

TEST(Soc, LeakageRisesWithDieTemperature) {
  Soc soc;
  soc.apply(config_at(1600));
  const workload::Demand d = cpu_demand(1, 0.5, 0.2);
  const double cool =
      big_rail(soc.step(d, {}, {45, 45, 45, 45}, 45, 45, 45, 0.1));
  const double hot =
      big_rail(soc.step(d, {}, {80, 80, 80, 80}, 80, 80, 80, 0.1));
  EXPECT_GT(hot, cool + 0.1);
}

TEST(Soc, MemoryPowerTracksTraffic) {
  Soc soc;
  soc.apply(config_at(1600));
  const auto mem_idx = power::resource_index(power::Resource::kMem);
  const double light = run(soc, cpu_demand(1, 0.5, 0.05)).rail_power_w[mem_idx];
  const double heavy = run(soc, cpu_demand(4, 0.5, 0.6)).rail_power_w[mem_idx];
  EXPECT_GT(heavy, light + 0.2);
}

std::uint64_t bits(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

void expect_same_bits(const SocStepResult& a, const SocStepResult& b) {
  for (std::size_t r = 0; r < power::kResourceCount; ++r) {
    EXPECT_EQ(bits(a.rail_power_w[r]), bits(b.rail_power_w[r])) << "rail " << r;
  }
  for (int c = 0; c < kBigCoreCount; ++c) {
    EXPECT_EQ(bits(a.big_core_power_w[c]), bits(b.big_core_power_w[c]))
        << "core " << c;
  }
  EXPECT_EQ(bits(a.progress_units), bits(b.progress_units));
  EXPECT_EQ(bits(a.cpu_max_util), bits(b.cpu_max_util));
  EXPECT_EQ(bits(a.cpu_avg_util), bits(b.cpu_avg_util));
  EXPECT_EQ(bits(a.gpu_util), bits(b.gpu_util));
}

// One schedule solve followed by step_captured per substep -- what
// sim::Plant::advance runs -- equals a full Soc::step per substep bit for
// bit: on the big cluster with 1-4 cores online and on the little cluster
// (reached by a migration, so the stall is consumed too), across GPU loads
// and a sweep of per-node temperatures.
TEST(Soc, SolveOnceThenCapturedStepsEqualFullSteps) {
  std::vector<SocConfig> configs;
  for (int online = 4; online >= 1; --online) {
    configs.push_back(config_at(1400, online));
  }
  SocConfig little = config_at(1400);
  little.active_cluster = ClusterId::kLittle;
  little.little_freq_hz = 1.2e9;
  configs.push_back(little);
  workload::ThreadDemand daemon;
  daemon.cpu_activity = 0.3;
  daemon.counts_progress = false;
  const std::vector<workload::ThreadDemand> background{daemon};
  Soc full;
  Soc captured;
  for (const SocConfig& config : configs) {
    full.apply(config);
    captured.apply(config);
    for (double gpu_load : {0.0, 0.4, 0.95}) {
      workload::Demand d = cpu_demand(3, 0.7, 0.35);
      d.gpu_load = gpu_load;
      d.gpu_cycles_per_unit = gpu_load > 0.0 ? 4.2e8 : 0.0;
      SCOPED_TRACE("online " + std::to_string(config.online_big_cores()) +
                   (config.active_cluster == ClusterId::kLittle ? " little"
                                                                : " big") +
                   " gpu " + std::to_string(gpu_load));
      captured.solve_schedule(d, background);
      SocStepResult out;
      for (double t = 30.0; t <= 105.0; t += 7.5) {
        const std::array<double, kBigCoreCount> cores{t, t + 1.5, t - 2.0,
                                                      t + 4.0};
        const SocStepResult expected =
            full.step(d, background, cores, t - 5.0, t + 2.5, t - 8.0, 0.01);
        captured.step_captured(cores, t - 5.0, t + 2.5, t - 8.0, 0.01, out);
        expect_same_bits(expected, out);
      }
    }
  }
}

/// step_captured()'s heat sources at `temps`, both in kHeatSourceCount
/// order.
std::array<double, kHeatSourceCount> heat_sources(
    Soc& soc, const std::array<double, kHeatSourceCount>& temps) {
  SocStepResult out;
  soc.step_captured({temps[0], temps[1], temps[2], temps[3]}, temps[4],
                    temps[5], temps[6], 0.01, out);
  const auto rail = [&](power::Resource r) {
    return out.rail_power_w[power::resource_index(r)];
  };
  return {out.big_core_power_w[0], out.big_core_power_w[1],
          out.big_core_power_w[2], out.big_core_power_w[3],
          rail(power::Resource::kLittleCluster), rail(power::Resource::kGpu),
          rail(power::Resource::kMem)};
}

// heat_jacobian is step_captured differentiated: it matches a central
// difference of step_captured in every entry, on the big cluster with 4, 3
// and 1 cores online and on the little cluster, from 30 to 105 C. Entries it
// reports as zero are exactly zero; the only off-diagonal column is the
// little-active big residual's dependence on core 0.
TEST(Soc, HeatJacobianMatchesCentralDifferenceOfStepCaptured) {
  std::vector<SocConfig> configs{config_at(1400, 4), config_at(1400, 3),
                                 config_at(1400, 1)};
  SocConfig little = config_at(1400);
  little.active_cluster = ClusterId::kLittle;
  little.little_freq_hz = 1.2e9;
  configs.push_back(little);
  constexpr double kStepK = 1e-3;
  Soc soc;
  for (const SocConfig& config : configs) {
    soc.apply(config);
    soc.solve_schedule(cpu_demand(3, 0.7, 0.35), {});
    const bool little_active = config.active_cluster == ClusterId::kLittle;
    for (double t = 30.0; t <= 105.0; t += 7.5) {
      const std::array<double, kHeatSourceCount> temps{
          t, t + 1.5, t - 2.0, t + 4.0, t - 5.0, t + 2.5, t - 8.0};
      const HeatJacobian analytic = soc.heat_jacobian(
          {temps[0], temps[1], temps[2], temps[3]}, temps[4], temps[5],
          temps[6]);
      for (std::size_t j = 0; j < kHeatSourceCount; ++j) {
        std::array<double, kHeatSourceCount> hot = temps;
        std::array<double, kHeatSourceCount> cold = temps;
        hot[j] += kStepK;
        cold[j] -= kStepK;
        const auto p_hot = heat_sources(soc, hot);
        const auto p_cold = heat_sources(soc, cold);
        for (std::size_t i = 0; i < kHeatSourceCount; ++i) {
          SCOPED_TRACE("online " + std::to_string(config.online_big_cores()) +
                       (little_active ? " little" : " big") + " at " +
                       std::to_string(t) + " C, d source " +
                       std::to_string(i) + " / d T " + std::to_string(j));
          const double numeric = (p_hot[i] - p_cold[i]) / (2.0 * kStepK);
          EXPECT_NEAR(analytic[i][j], numeric,
                      1e-9 + 1e-6 * std::abs(analytic[i][j]));
          const bool coupled =
              i == j || (little_active && j == 0 && i < kBigCoreCount);
          if (!coupled) {
            EXPECT_EQ(analytic[i][j], 0.0);
          }
        }
      }
      // The little cluster's parked big cores heat off core 0 only.
      if (little_active) {
        EXPECT_GT(analytic[3][0], 0.0);
      }
    }
  }
}

TEST(Soc, StepRejectsNonPositiveDt) {
  Soc soc;
  EXPECT_THROW(run(soc, {}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dtpm::soc
