#include "workload/runtime.hpp"

#include <algorithm>

namespace dtpm::workload {

WorkloadInstance::WorkloadInstance(const Benchmark& benchmark)
    : benchmark_(&benchmark) {
  benchmark.validate();
}

void WorkloadInstance::demand_into(Demand& out) const {
  const Phase& phase = benchmark_->phase_at(progress_fraction());
  out.threads.clear();
  out.threads.reserve(static_cast<std::size_t>(phase.threads));
  for (int t = 0; t < phase.threads; ++t) {
    ThreadDemand td;
    td.duty = phase.duty;
    td.cpu_activity = phase.cpu_activity;
    td.mem_intensity = phase.mem_intensity;
    td.counts_progress = true;
    td.cpu_cycles_per_unit = benchmark_->cpu_cycles_per_unit;
    td.mem_seconds_per_unit =
        benchmark_->mem_seconds_per_unit * phase.mem_intensity;
    out.threads.push_back(td);
  }
  out.gpu_load = phase.gpu_load;
  out.gpu_cycles_per_unit = benchmark_->gpu_cycles_per_unit;
}

void WorkloadInstance::advance(double work_units) {
  completed_units_ =
      std::min(completed_units_ + std::max(work_units, 0.0),
               benchmark_->total_work_units);
}

double WorkloadInstance::progress_fraction() const {
  return completed_units_ / benchmark_->total_work_units;
}

}  // namespace dtpm::workload
