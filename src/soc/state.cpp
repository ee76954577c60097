#include "soc/state.hpp"

namespace dtpm::soc {

const char* to_string(ClusterId c) {
  return c == ClusterId::kBig ? "big" : "little";
}

int SocConfig::online_big_cores() const {
  int n = 0;
  for (bool online : big_core_online) n += online ? 1 : 0;
  return n;
}

int SocConfig::schedulable_cores() const {
  return active_cluster == ClusterId::kBig ? online_big_cores()
                                           : kLittleCoreCount;
}

double PlatformView::max_big_temp_c() const {
  double best = big_temps_c[0];
  for (double t : big_temps_c) best = best < t ? t : best;
  return best;
}

}  // namespace dtpm::soc
