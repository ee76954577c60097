// Scenario-catalog fuzzing sweep: expands every registered scenario family
// over several seeds and both the stock-fan and proposed-DTPM policies, runs
// the whole grid through the BatchRunner, checks the physics invariants on
// every recorded trace, and prints (plus writes to CSV) a per-family
// summary. This is the scenario-diversity counterpart of the fixed
// Table-6.4 catalog: it exercises the stress shapes -- soak ramps, duty
// cycles near the thermal time constant, GPU co-stress -- where predictive
// DTPM failure modes live.
//
// Usage: bench_scenario_catalog [seed_count] [csv_path]
//   seed_count  seeds per family/policy (default 3)
//   csv_path    summary output (default scenario_catalog_summary.csv)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/scenario_catalog.hpp"

namespace {

struct FamilySummary {
  int runs = 0;
  int crashed = 0;  ///< runs that threw; excluded from the means below
  int completed = 0;
  int invariant_violations = 0;
  double exec_time_sum_s = 0.0;
  double power_sum_w = 0.0;
  double peak_temp_c = 0.0;
  double violation_time_sum_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dtpm;
  const int seed_count = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::string csv_path =
      argc > 2 ? argv[2] : "scenario_catalog_summary.csv";
  bench::print_header("Scenario catalog",
                      "Procedural stress scenarios under invariant checking");

  const sim::ScenarioCatalog catalog = sim::ScenarioCatalog::standard();
  sim::ScenarioCatalog::Sweep sweep;
  sweep.base.max_sim_time_s = 300.0;
  sweep.policy_names = {"default+fan",
                    "dtpm"};
  sweep.seeds.clear();
  for (int s = 1; s <= std::max(1, seed_count); ++s) sweep.seeds.push_back(s);

  const std::vector<sim::ExperimentConfig> configs = catalog.expand(sweep);
  std::printf("  sweeping %zu families x %zu seeds x %zu policies = %zu runs "
              "on %u workers\n\n",
              catalog.size(), sweep.seeds.size(), sweep.policy_names.size(),
              configs.size(), sim::BatchRunner().worker_count());

  std::vector<sim::BatchJob> jobs;
  for (const sim::ExperimentConfig& c : configs) {
    jobs.push_back({c, &bench::shared_model()});
  }
  const sim::BatchOutcome outcome =
      sim::BatchRunner().run_collecting(jobs);

  const sim::InvariantChecker checker;
  std::map<std::string, FamilySummary> families;
  int total_violations = 0;
  int total_crashes = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string family =
        configs[i].benchmark.substr(0, configs[i].benchmark.find('#'));
    FamilySummary& fam = families[family];
    ++fam.runs;
    if (outcome.errors[i] != nullptr) {
      // A throwing run is reported in its own column: its physics were
      // never checked, so it must not masquerade as an invariant violation
      // (nor deflate the per-family means).
      try {
        std::rethrow_exception(outcome.errors[i]);
      } catch (const std::exception& e) {
        std::printf("  RUN FAILED %s (%s): %s\n", configs[i].benchmark.c_str(),
                    configs[i].policy_name.c_str(), e.what());
      }
      ++fam.crashed;
      ++total_crashes;
      continue;
    }
    const sim::RunResult& r = outcome.results[i];
    const auto violations = checker.check(configs[i], r);
    if (!violations.empty()) {
      std::printf("  INVARIANT FAILURES in %s (%s):\n%s",
                  configs[i].benchmark.c_str(), configs[i].policy_name.c_str(),
                  sim::InvariantChecker::describe(violations).c_str());
    }
    fam.invariant_violations += int(violations.size());
    total_violations += int(violations.size());
    fam.completed += r.completed ? 1 : 0;
    fam.exec_time_sum_s += r.execution_time_s;
    fam.power_sum_w += r.avg_platform_power_w;
    fam.peak_temp_c = std::max(fam.peak_temp_c, r.max_temp_stats.max());
    fam.violation_time_sum_s += r.violation_time_s;
  }

  std::printf("  %-22s %5s %6s %5s %9s %7s %8s %9s %6s\n", "family", "runs",
              "crash", "done", "exec[s]", "P[W]", "Tpeak[C]", ">63C[s]",
              "viol");
  std::ofstream csv(csv_path);
  if (!csv) {
    std::fprintf(stderr, "cannot open summary CSV %s for writing\n",
                 csv_path.c_str());
    return 2;
  }
  csv << "family,runs,crashed,completed,mean_exec_s,mean_power_w,"
         "peak_temp_c,mean_violation_s,invariant_violations\n";
  for (const auto& [name, fam] : families) {
    // Means are over the runs that actually produced a result.
    const double n = std::max(1, fam.runs - fam.crashed);
    std::printf("  %-22s %5d %6d %5d %9.1f %7.2f %8.1f %9.2f %6d\n",
                name.c_str(), fam.runs, fam.crashed, fam.completed,
                fam.exec_time_sum_s / n, fam.power_sum_w / n, fam.peak_temp_c,
                fam.violation_time_sum_s / n, fam.invariant_violations);
    csv << name << ',' << fam.runs << ',' << fam.crashed << ','
        << fam.completed << ',' << fam.exec_time_sum_s / n << ','
        << fam.power_sum_w / n << ',' << fam.peak_temp_c << ','
        << fam.violation_time_sum_s / n << ',' << fam.invariant_violations
        << '\n';
  }
  std::printf(
      "\n  total invariant violations: %d, failed runs: %d (%s)\n"
      "  summary CSV: %s\n",
      total_violations, total_crashes,
      total_violations == 0 && total_crashes == 0
          ? "catalog is physically consistent"
          : "SIMULATOR BUG SURFACED",
      csv_path.c_str());
  return total_violations == 0 && total_crashes == 0 ? 0 : 1;
}
