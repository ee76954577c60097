#include "serve/aggregator.hpp"

namespace dtpm::serve {

namespace {

using util::JsonObject;
using util::JsonValue;

JsonValue percentile_block(const util::RunningStats& stats,
                           const util::QuantileSketch& sketch) {
  JsonValue block((JsonObject()));
  block.set("mean", stats.mean());
  block.set("p50", sketch.quantile(0.50));
  block.set("p90", sketch.quantile(0.90));
  block.set("p99", sketch.quantile(0.99));
  block.set("min", stats.min());
  block.set("max", stats.max());
  return block;
}

}  // namespace

void FleetAggregate::fold_result(const sim::RunResult& result) {
  ++devices_;
  if (result.completed) ++completed_;
  if (result.runaway) ++runaway_;
  if (result.violation_time_s > 0.0) ++violated_;

  energy_j_ += result.platform_energy_j;
  violation_s_ += result.violation_time_s;
  simulated_time_s_ += result.execution_time_s;

  const double peak = result.max_temp_stats.max();
  peak_temp_c_.add(peak);
  peak_temp_sketch_.add(peak);
  exec_time_s_.add(result.execution_time_s);
  exec_time_sketch_.add(result.execution_time_s);
  avg_power_w_.add(result.avg_platform_power_w);
}

void FleetAggregate::fold_error() {
  ++devices_;
  ++failed_;
}

JsonValue FleetAggregate::to_json() const {
  const std::uint64_t ran = devices_ - failed_;
  JsonValue json((JsonObject()));
  json.set("devices", devices_);
  json.set("failed", failed_);
  json.set("completed", completed_);
  json.set("runaway", runaway_);
  json.set("violated", violated_);
  // Rates are over the runs that actually produced a result; a fleet where
  // every slot failed reports rate 0 rather than dividing by zero.
  json.set("violation_rate", ran > 0 ? double(violated_) / double(ran) : 0.0);
  json.set("runaway_rate", ran > 0 ? double(runaway_) / double(ran) : 0.0);
  json.set("violation_time_s_total", violation_s_);
  json.set("platform_energy_j_total", energy_j_);
  json.set("platform_energy_j_mean",
           ran > 0 ? energy_j_ / double(ran) : 0.0);
  json.set("simulated_time_s_total", simulated_time_s_);
  json.set("peak_temp_c", percentile_block(peak_temp_c_, peak_temp_sketch_));
  json.set("exec_time_s", percentile_block(exec_time_s_, exec_time_sketch_));
  {
    JsonValue power((JsonObject()));
    power.set("mean", avg_power_w_.mean());
    power.set("min", avg_power_w_.min());
    power.set("max", avg_power_w_.max());
    json.set("avg_power_w", power);
  }
  {
    JsonValue sketch((JsonObject()));
    sketch.set("capacity", std::uint64_t(peak_temp_sketch_.capacity()));
    sketch.set("retained", std::uint64_t(peak_temp_sketch_.retained() +
                                         exec_time_sketch_.retained()));
    json.set("sketch", sketch);
  }
  return json;
}

}  // namespace dtpm::serve
