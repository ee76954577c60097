// Quickstart: calibrate the platform models once, then run one benchmark
// under all four experimental configurations of §6.2 and compare thermal
// behaviour, platform power, and execution time.
#include <cstdio>

#include "sim/calibration.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace dtpm;

  // Identify the power/thermal models (furnace + PRBS + least squares).
  // default_calibration() caches the workflow; see examples/sysid_workflow
  // for the step-by-step version.
  const sysid::IdentifiedPlatformModel& model = sim::default_calibration().model;

  const char* benchmark = "basicmath";
  std::printf("benchmark: %s\n\n", benchmark);
  std::printf("%-14s %10s %10s %10s %10s %10s\n", "policy", "time[s]",
              "avgT[C]", "maxT[C]", "varT[C^2]", "Pplat[W]");

  // Policies are selected by registry name (the four §6.2 configurations
  // here; `dtpm list policies` shows everything registered, including your
  // own).
  for (const char* policy : {"default+fan", "no-fan", "reactive", "dtpm"}) {
    sim::ExperimentConfig config;
    config.benchmark = benchmark;
    config.policy_name = policy;
    config.record_trace = false;
    const sim::RunResult r = sim::run_experiment(config, &model);
    std::printf("%-14s %10.1f %10.2f %10.2f %10.2f %10.2f%s\n",
                policy, r.execution_time_s,
                r.max_temp_stats.mean(), r.max_temp_stats.max(),
                r.max_temp_stats.variance(), r.avg_platform_power_w,
                r.completed ? "" : "  (did not complete)");
  }

  std::printf(
      "\nThe proposed DTPM regulates the hotspot temperature without a fan\n"
      "while staying close to the default configuration's execution time.\n");
  return 0;
}
