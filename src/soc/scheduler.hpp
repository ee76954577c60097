// Load-balancing thread placement, standing in for the Linux kernel's load
// balancer. The paper deliberately leaves scheduling/migration to the stock
// kernel (§2, §5.2): when the DTPM algorithm hotplugs a core, "the tasks
// running on this core are migrated to the other cores by the kernel". This
// scheduler provides exactly that behaviour: greedy longest-processing-time
// placement of thread duties onto the online cores of the active cluster.
#pragma once

#include <vector>

#include "soc/state.hpp"
#include "workload/runtime.hpp"

namespace dtpm::soc {

/// One thread's placement result. The demand is stored by value so a
/// Placement stays valid independently of the input vector's lifetime.
struct PlacedThread {
  workload::ThreadDemand demand;
  int core = 0;       ///< physical core index within the active cluster
  double share = 0.0; ///< CPU-time share actually received in [0, duty]
};

/// Placement of all threads for one control interval.
struct Placement {
  std::vector<PlacedThread> threads;
  /// Per physical core: total requested load (sum of duties, may exceed 1)
  /// and granted utilization (capped at 1). Offline cores read 0.
  std::array<double, kBigCoreCount> core_load{};
  std::array<double, kBigCoreCount> core_util{};
  double max_util = 0.0;
  double avg_util = 0.0;
};

/// Places threads onto the online cores of the active cluster.
///
/// Threads are sorted by duty (descending) and assigned greedily to the
/// least-loaded online core. When a core is oversubscribed (load > 1) every
/// thread on it receives a proportionally reduced share, which is how core
/// shutdown and cluster migration turn into performance loss.
///
/// Allocation-free for the per-substep hot path: resets and refills `out`
/// (its thread vector's capacity is reused) and uses `order_scratch` as
/// sort scratch.
void place_threads_into(const std::vector<workload::ThreadDemand>& threads,
                        const SocConfig& config, Placement& out,
                        std::vector<std::size_t>& order_scratch);

}  // namespace dtpm::soc
