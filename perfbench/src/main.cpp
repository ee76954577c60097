// perfbench: one workload per process.
//
//   perfbench --workload fleet-smoke|sweep-paper|serve-mixed
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 times the workload with tracing off and reports the end-to-end
// metrics; --trace 1 runs the traced pass and reports the per-layer ones.
// Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(arg + " needs a value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (arg == "--out") {
        opts.out_dir = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    perfbench::Report report;
    if (opts.workload == "fleet-smoke") {
      report = perfbench::run_fleet_smoke(opts);
    } else if (opts.workload == "sweep-paper") {
      report = perfbench::run_sweep_paper(opts);
    } else if (opts.workload == "serve-mixed") {
      report = perfbench::run_serve_mixed(opts);
    } else {
      return usage("unknown workload '" + opts.workload + "'");
    }
    std::cout << report.result_line() << std::endl;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
