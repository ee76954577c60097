// Background activity model. The paper runs every benchmark with the full
// Android stack alive (§6.1.3): "even if a benchmark is single threaded,
// there are many active threads in the system". This generator produces the
// equivalent low-duty OS/background threads, and optionally the heavy
// matrix-multiplication load the paper adds while running games and video.
#pragma once

#include <vector>

#include "util/rng.hpp"
#include "workload/runtime.hpp"

namespace dtpm::workload {

/// Parameters of the ambient Android-like background load.
struct BackgroundParams {
  int thread_count = 2;          ///< persistent low-duty system threads
  double base_duty = 0.10;       ///< average runnable fraction per thread
  double duty_jitter = 0.05;     ///< uniform jitter amplitude
  double spike_probability = 0.02;  ///< chance of a short activity spike
  double spike_duty = 0.35;
  double cpu_activity = 0.45;
  double mem_intensity = 0.3;
  /// Heavy CPU load (the paper's background matmul for games/video).
  bool heavy_load = false;
  int heavy_threads = 1;
  double heavy_activity = 0.50;
  double heavy_mem_intensity = 0.4;
};

/// Stateful generator: call threads_into() once per control interval.
class BackgroundLoad {
 public:
  BackgroundLoad(const BackgroundParams& params, util::Rng rng);

  /// Background thread demands for this interval, allocation-free: clears
  /// and refills `threads_out` (capacity is reused across calls).
  void threads_into(std::vector<ThreadDemand>& threads_out);

  const BackgroundParams& params() const { return params_; }

 private:
  BackgroundParams params_;
  util::Rng rng_;
  int spike_intervals_left_ = 0;
};

}  // namespace dtpm::workload
