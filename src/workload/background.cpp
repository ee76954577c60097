#include "workload/background.hpp"

#include <algorithm>

namespace dtpm::workload {

BackgroundLoad::BackgroundLoad(const BackgroundParams& params, util::Rng rng)
    : params_(params), rng_(rng) {}

void BackgroundLoad::threads_into(std::vector<ThreadDemand>& out) {
  out.clear();
  if (spike_intervals_left_ > 0) {
    --spike_intervals_left_;
  } else if (rng_.bernoulli(params_.spike_probability)) {
    spike_intervals_left_ = int(rng_.uniform_int(3, 10));
  }
  for (int t = 0; t < params_.thread_count; ++t) {
    ThreadDemand td;
    double duty = params_.base_duty +
                  rng_.uniform(-params_.duty_jitter, params_.duty_jitter);
    if (spike_intervals_left_ > 0 && t == 0) duty = params_.spike_duty;
    td.duty = std::clamp(duty, 0.01, 1.0);
    td.cpu_activity = params_.cpu_activity;
    td.mem_intensity = params_.mem_intensity;
    td.counts_progress = false;
    out.push_back(td);
  }
  if (params_.heavy_load) {
    for (int t = 0; t < params_.heavy_threads; ++t) {
      ThreadDemand td;
      td.duty = 1.0;
      td.cpu_activity = params_.heavy_activity;
      td.mem_intensity = params_.heavy_mem_intensity;
      td.counts_progress = false;
      out.push_back(td);
    }
  }
}

}  // namespace dtpm::workload
