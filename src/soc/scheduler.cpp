#include "soc/scheduler.hpp"

#include <algorithm>
#include <numeric>

namespace dtpm::soc {

void place_threads_into(const std::vector<workload::ThreadDemand>& threads,
                        const SocConfig& config, Placement& out,
                        std::vector<std::size_t>& order) {
  out.threads.clear();
  out.core_load.fill(0.0);
  out.core_util.fill(0.0);
  out.max_util = 0.0;
  out.avg_util = 0.0;

  // Determine which physical cores are schedulable. Both clusters have at
  // most kBigCoreCount cores, so a fixed array suffices.
  static_assert(kLittleCoreCount <= kBigCoreCount,
                "online-core scratch sized for the bigger cluster");
  std::array<int, kBigCoreCount> online{};
  int online_count = 0;
  if (config.active_cluster == ClusterId::kBig) {
    for (int c = 0; c < kBigCoreCount; ++c) {
      if (config.big_core_online[c]) online[online_count++] = c;
    }
  } else {
    for (int c = 0; c < kLittleCoreCount; ++c) online[online_count++] = c;
  }
  if (online_count == 0 || threads.empty()) return;

  // Greedy LPT: heaviest thread first onto the least-loaded core. The order
  // is a stable descending-duty sort; insertion sort is stable and needs no
  // temporary buffer (std::stable_sort heap-allocates one), and a stable
  // sort's output is unique, so the placement is bit-identical.
  order.resize(threads.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t key = order[i];
    std::size_t j = i;
    while (j > 0 && threads[order[j - 1]].duty < threads[key].duty) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = key;
  }

  out.threads.resize(threads.size());
  for (std::size_t idx : order) {
    int best = online[0];
    for (int oc = 0; oc < online_count; ++oc) {
      const int c = online[oc];
      if (out.core_load[c] < out.core_load[best]) best = c;
    }
    out.threads[idx].demand = threads[idx];
    out.threads[idx].core = best;
    out.core_load[best] += threads[idx].duty;
  }

  // Grant shares: proportional scaling on oversubscribed cores.
  for (auto& placed : out.threads) {
    const double load = out.core_load[placed.core];
    const double scale = load > 1.0 ? 1.0 / load : 1.0;
    placed.share = placed.demand.duty * scale;
  }

  double util_sum = 0.0;
  for (int oc = 0; oc < online_count; ++oc) {
    const int c = online[oc];
    out.core_util[c] = std::min(out.core_load[c], 1.0);
    out.max_util = std::max(out.max_util, out.core_util[c]);
    util_sum += out.core_util[c];
  }
  out.avg_util = util_sum / double(online_count);
}

}  // namespace dtpm::soc
