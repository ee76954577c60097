#include "sim/invariant_checker.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "power/opp.hpp"
#include "sim/trace_recorder.hpp"
#include "thermal/fan.hpp"

namespace dtpm::sim {
namespace {

/// Column indices resolved once per check; the schema is owned by
/// TraceRecorder::column_names(), so a renamed column fails loudly here.
struct Columns {
  std::size_t time, t_max, p_platform, f_big, f_little, f_gpu;
  std::size_t cluster, online, fan, cpu_util, gpu_util, progress, pred_ahead;
  std::array<std::size_t, soc::kBigCoreCount> big;
  std::array<std::size_t, power::kResourceCount> rails;

  /// NaN is the documented "no prediction scheduled/due" sentinel in the
  /// prediction columns (sim/prediction_observer.hpp); everywhere else a
  /// non-finite cell is a simulator bug.
  bool nan_allowed(const std::string& name) const {
    return name.rfind("pred_", 0) == 0;
  }

  /// Every column is resolved by name (never by offset from a neighbour),
  /// so a renamed OR reordered trace schema fails loudly here instead of
  /// silently misvalidating.
  explicit Columns(const std::vector<std::string>& header) {
    time = index_of(header, "time_s");
    t_max = index_of(header, "t_max_c");
    p_platform = index_of(header, "p_platform_w");
    f_big = index_of(header, "f_big_mhz");
    f_little = index_of(header, "f_little_mhz");
    f_gpu = index_of(header, "f_gpu_mhz");
    cluster = index_of(header, "cluster");
    online = index_of(header, "online_cores");
    fan = index_of(header, "fan_level");
    cpu_util = index_of(header, "cpu_util");
    gpu_util = index_of(header, "gpu_util");
    progress = index_of(header, "progress");
    pred_ahead = index_of(header, "pred_max_ahead_c");
    for (int c = 0; c < soc::kBigCoreCount; ++c) {
      big[c] = index_of(header, "t_big" + std::to_string(c) + "_c");
    }
    const char* rail_names[power::kResourceCount] = {"p_big_w", "p_little_w",
                                                     "p_gpu_w", "p_mem_w"};
    for (std::size_t r = 0; r < power::kResourceCount; ++r) {
      rails[r] = index_of(header, rail_names[r]);
    }
  }

  static std::size_t index_of(const std::vector<std::string>& header,
                              const std::string& name) {
    const auto it = std::find(header.begin(), header.end(), name);
    if (it == header.end()) {
      throw std::invalid_argument("InvariantChecker: trace has no column " +
                                  name);
    }
    return std::size_t(it - header.begin());
  }
};

bool in_table(const power::OppTable& table, double freq_hz, double tol_hz) {
  for (const auto& opp : table.points()) {
    if (std::fabs(opp.frequency_hz - freq_hz) <= tol_hz) return true;
  }
  return false;
}

std::string format_row(const char* text, double value) {
  std::ostringstream os;
  os << text << " (value " << value << ")";
  return os.str();
}

}  // namespace

InvariantChecker::InvariantChecker(const InvariantCheckerOptions& options)
    : options_(options) {}

std::vector<InvariantViolation> InvariantChecker::check(
    const ExperimentConfig& config, const RunResult& result) const {
  std::vector<InvariantViolation> found;
  const auto violate = [&found](const std::string& invariant, std::size_t row,
                                const std::string& message) {
    found.push_back({invariant, row, message});
  };

  // Everything platform-dependent (OPP tables, fan power curve, ambient,
  // fixed loads) comes from the config's resolved descriptor, so the checks
  // hold on every registered platform, not just the default board.
  const PlatformPtr platform = resolved_platform(config);

  // --- Aggregate invariants (always checkable). ---------------------------
  if (result.execution_time_s < 0.0) {
    violate("exec-time", InvariantViolation::kAggregate,
            format_row("negative execution time", result.execution_time_s));
  }
  if (result.completed && result.execution_time_s <= 0.0) {
    violate("exec-time", InvariantViolation::kAggregate,
            "completed run with non-positive execution time");
  }
  if (result.platform_energy_j < 0.0) {
    violate("energy", InvariantViolation::kAggregate,
            format_row("negative platform energy", result.platform_energy_j));
  }
  if (result.execution_time_s > 0.0) {
    // avg_platform_power is defined as platform_energy / execution_time.
    const double implied =
        result.avg_platform_power_w * result.execution_time_s;
    const double tol = 1e-9 * std::max(1.0, result.platform_energy_j);
    if (std::fabs(implied - result.platform_energy_j) > tol) {
      violate("energy", InvariantViolation::kAggregate,
              "platform energy inconsistent with avg power x time");
    }
    // Rail decomposition: platform minus SoC covers at least the fixed
    // platform loads (the remainder is the non-negative fan energy).
    const double fixed = platform->platform_load.board_base_w +
                         platform->platform_load.display_w;
    const double overhead =
        result.avg_platform_power_w - result.avg_soc_power_w;
    if (overhead < fixed - 1e-6) {
      violate("rail-decomposition", InvariantViolation::kAggregate,
              format_row("platform/SoC power gap below fixed loads",
                         overhead));
    }
  }
  if (result.violation_time_s < 0.0 ||
      result.violation_time_s >
          result.execution_time_s + config.control_interval_s) {
    violate("violation-time", InvariantViolation::kAggregate,
            format_row("violation time outside the run window",
                       result.violation_time_s));
  }
  if (result.max_temp_stats.count() > 0) {
    if (result.max_temp_stats.max() > options_.temp_ceiling_c) {
      violate("temp-range", InvariantViolation::kAggregate,
              format_row("max temperature above the sensor ceiling",
                         result.max_temp_stats.max()));
    }
    if (result.max_temp_stats.min() <
        platform->floorplan.ambient_temp_c() - options_.temp_margin_c) {
      violate("temp-range", InvariantViolation::kAggregate,
              format_row("max temperature below ambient",
                         result.max_temp_stats.min()));
    }
  }

  if (!result.trace.has_value()) return found;
  const util::TraceTable& trace = *result.trace;
  const Columns col(trace.header());

  const power::OppTable big_opps = platform->big_opp_table();
  const power::OppTable little_opps = platform->little_opp_table();
  const power::OppTable gpu_opps = platform->gpu_opp_table();
  const thermal::Fan fan(platform->fan);
  const double ambient_floor_c =
      platform->floorplan.ambient_temp_c() - options_.temp_margin_c;
  const double fixed_w = platform->platform_load.board_base_w +
                         platform->platform_load.display_w;
  const double dtpm_trigger_c =
      config.dtpm.t_max_c - config.dtpm.guard_band_c;
  // The budget contract binds whenever the config selects the DTPM governor.
  const bool dtpm_policy = config.policy_name == "dtpm";

  double prev_time = -1.0;
  double prev_progress = 0.0;
  std::size_t unrestricted_violation_streak = 0;

  for (std::size_t r = 0; r < trace.rows().size(); ++r) {
    const std::vector<double>& row = trace.rows()[r];

    for (std::size_t c = 0; c < row.size(); ++c) {
      if (std::isfinite(row[c])) continue;
      if (std::isnan(row[c]) && col.nan_allowed(trace.header()[c])) continue;
      violate("finite", r, "non-finite value in column " + trace.header()[c]);
    }

    // Time marches forward by at most one control interval (the final
    // interval may be shorter when the benchmark finishes mid-interval).
    const double time = row[col.time];
    if (r == 0 && time < 0.0) {
      violate("time", r, format_row("negative start time", time));
    }
    if (r > 0) {
      const double dt = time - prev_time;
      if (dt <= 0.0 || dt > config.control_interval_s + 1e-9) {
        violate("time", r, format_row("trace time step out of range", dt));
      }
    }
    prev_time = time;

    // Temperatures: inside the sensor range, never below ambient, and the
    // t_max column must be the max of the per-core readings.
    double hottest = -1e300;
    for (std::size_t c = 0; c < std::size_t(soc::kBigCoreCount); ++c) {
      const double temp = row[col.big[c]];
      hottest = std::max(hottest, temp);
      if (temp < ambient_floor_c || temp > options_.temp_ceiling_c) {
        violate("temp-range", r,
                format_row("core temperature outside sensor bounds", temp));
      }
    }
    if (std::fabs(row[col.t_max] - hottest) > 1e-9) {
      violate("temp-max", r,
              format_row("t_max_c is not the max core reading",
                         row[col.t_max]));
    }

    // Powers: rails non-negative, and the platform meter column must equal
    // rails + fan + fixed loads (the identity the meter is built from).
    double rail_sum = 0.0;
    for (std::size_t c = 0; c < power::kResourceCount; ++c) {
      const double p = row[col.rails[c]];
      rail_sum += p;
      if (p < -options_.power_epsilon_w) {
        violate("power-sign", r, format_row("negative rail power", p));
      }
    }
    const double fan_level_d = row[col.fan];
    const int fan_level_i = int(std::lround(fan_level_d));
    if (fan_level_i < 0 || fan_level_i > 3 ||
        std::fabs(fan_level_d - fan_level_i) > 1e-9) {
      violate("actuation-range", r,
              format_row("fan level outside 0..3", fan_level_d));
    } else {
      const double fan_w =
          fan.electrical_power_w(thermal::FanSpeed(fan_level_i));
      const double expected = rail_sum + fan_w + fixed_w;
      if (std::fabs(row[col.p_platform] - expected) >
          options_.power_identity_tol_w) {
        violate("power-identity", r,
                format_row("platform power != rails + fan + fixed loads",
                           row[col.p_platform] - expected));
      }
    }

    // Frequencies must be operating points of their domain tables.
    if (!in_table(big_opps, row[col.f_big] * 1e6, options_.freq_tol_hz)) {
      violate("opp-table", r,
              format_row("big frequency not in the platform's big OPP table",
                         row[col.f_big]));
    }
    if (!in_table(little_opps, row[col.f_little] * 1e6,
                  options_.freq_tol_hz)) {
      violate("opp-table", r,
              format_row(
                  "little frequency not in the platform's little OPP table",
                  row[col.f_little]));
    }
    if (!in_table(gpu_opps, row[col.f_gpu] * 1e6, options_.freq_tol_hz)) {
      violate("opp-table", r,
              format_row("GPU frequency not in the platform's GPU OPP table",
                         row[col.f_gpu]));
    }

    // Actuation/observation ranges.
    const double cluster = row[col.cluster];
    if (cluster != 0.0 && cluster != 1.0) {
      violate("actuation-range", r,
              format_row("cluster flag not 0/1", cluster));
    }
    const double online = row[col.online];
    if (online < 1.0 || online > double(soc::kBigCoreCount) ||
        std::fabs(online - double(std::lround(online))) > 1e-9) {
      violate("actuation-range", r,
              format_row("online core count outside 1..4", online));
    }
    if (row[col.cpu_util] < 0.0 || row[col.cpu_util] > 1.0 + 1e-6) {
      violate("util-range", r,
              format_row("CPU utilization outside [0,1]", row[col.cpu_util]));
    }
    if (row[col.gpu_util] < 0.0 || row[col.gpu_util] > 1.0 + 1e-6) {
      violate("util-range", r,
              format_row("GPU utilization outside [0,1]", row[col.gpu_util]));
    }

    // Progress is a completed-work fraction: monotone within [0, 1].
    const double progress = row[col.progress];
    if (progress < 0.0 || progress > 1.0 + 1e-9) {
      violate("progress", r, format_row("progress outside [0,1]", progress));
    }
    if (progress < prev_progress - 1e-12) {
      violate("progress", r, format_row("progress moved backwards", progress));
    }
    prev_progress = progress;

    // DTPM budget contract: while the governor predicts a violation of the
    // temperature constraint, it may not hold the platform at the
    // unrestricted maximum beyond the configured grace (one interval of
    // reaction latency, plus one where the computed budget still admits the
    // current operating point).
    if (dtpm_policy) {
      const bool predicted_violation =
          row[col.pred_ahead] > dtpm_trigger_c + 1e-9;
      const bool unrestricted_max =
          cluster == 0.0 && online == double(soc::kBigCoreCount) &&
          std::fabs(row[col.f_big] * 1e6 - big_opps.max().frequency_hz) <=
              options_.freq_tol_hz &&
          std::fabs(row[col.f_gpu] * 1e6 - gpu_opps.max().frequency_hz) <=
              options_.freq_tol_hz;
      if (predicted_violation && unrestricted_max) {
        ++unrestricted_violation_streak;
        if (unrestricted_violation_streak > options_.dtpm_grace_intervals) {
          violate("dtpm-budget", r,
                  format_row(
                      "predicted violation without actuation beyond grace",
                      row[col.pred_ahead]));
        }
      } else {
        unrestricted_violation_streak = 0;
      }
    }
  }

  return found;
}

std::string InvariantChecker::describe(
    const std::vector<InvariantViolation>& found) {
  std::ostringstream os;
  for (const InvariantViolation& v : found) {
    os << v.invariant;
    if (v.row != InvariantViolation::kAggregate) os << " @row " << v.row;
    os << ": " << v.message << "\n";
  }
  return os.str();
}

}  // namespace dtpm::sim
