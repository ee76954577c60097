// The paper's evaluation claims (Figs. 1.1-7.1, Tables 6.1-6.4, §6.2), each
// checked against one shared set of runs on the default platform: one
// calibration, the Fig. 6.2 observer sweep, the Fig. 6.9 suite x policy
// sweep, the traced policy runs Figs. 1.1 and 6.3-6.8 share, the Fig. 4.10
// horizons, the Fig. 6.10 pair and the ablation grid.
//
// Every row names its figure, the quantity, the paper's value and a kind:
//   ordering  the measured value lies strictly between two limits, usually
//             other measured values (a shape the paper plots);
//   band      it lies inside a closed interval around a quoted value;
//   bound     it lies on one side of a quoted limit (inclusive);
//   exact     it equals the paper's value.
// A quoted value with "~" or "roughly" is matched at the precision it is
// quoted with: "~3" accepts [2.5, 3.5], "3.3" accepts [3.25, 3.35]. A row
// that misses today and has a stated cause is a known gap; every other row
// is a gate.
//
// Usage: paper_claims (no arguments). Prints a Markdown scorecard, writes
// the same rows at full precision to claims.json in the working directory,
// and exits 1 when a gate row fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/budget_distribution.hpp"
#include "power/dynamic_power.hpp"
#include "power/leakage.hpp"
#include "power/opp.hpp"
#include "sim/batch.hpp"
#include "sim/calibration.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "workload/suite.hpp"

namespace {

using namespace dtpm;

constexpr double kInf = std::numeric_limits<double>::infinity();
const char* const kCauseUnknown = "cause not yet found";

enum class Kind { kOrdering, kBand, kBound, kExact };

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kOrdering: return "ordering";
    case Kind::kBand: return "band";
    case Kind::kBound: return "bound";
    case Kind::kExact: return "exact";
  }
  return "?";
}

struct Claim {
  std::string figure;
  std::string quantity;
  std::string paper;
  Kind kind;
  double measured;
  double lo;  ///< -kInf when open
  double hi;  ///< kInf when open
  std::string tolerance;  ///< why these limits
  std::string gap_cause;  ///< non-empty: a known gap, not a gate
};

bool holds(const Claim& c) {
  if (c.kind == Kind::kOrdering) return c.lo < c.measured && c.measured < c.hi;
  return c.lo <= c.measured && c.measured <= c.hi;
}

const char* status(const Claim& c) {
  if (holds(c)) return "pass";
  return c.gap_cause.empty() ? "fail" : "known-gap";
}

// --- Runs --------------------------------------------------------------------

sim::ExperimentConfig config_for(const std::string& benchmark,
                                 const std::string& policy, bool trace,
                                 unsigned observe_horizon_steps = 0) {
  sim::ExperimentConfig config;
  config.benchmark = benchmark;
  sim::set_policy(config, policy);
  config.record_trace = trace;
  if (observe_horizon_steps > 0) {
    config.observe_predictions = true;
    config.observe_horizon_steps = observe_horizon_steps;
  }
  return config;
}

std::vector<sim::RunResult> run_batch(
    const std::vector<sim::ExperimentConfig>& configs) {
  return sim::BatchRunner().run(configs, &sim::default_calibration().model);
}

double saving_pct(const sim::RunResult& base, const sim::RunResult& r) {
  return 100.0 * (base.avg_platform_power_w - r.avg_platform_power_w) /
         base.avg_platform_power_w;
}

double loss_pct(const sim::RunResult& base, const sim::RunResult& r) {
  return 100.0 * (r.execution_time_s - base.execution_time_s) /
         base.execution_time_s;
}

double column_mean(const sim::RunResult& r, const std::string& column) {
  util::RunningStats stats;
  for (double v : r.trace->column(column)) stats.add(v);
  return stats.mean();
}

/// Max-core-temperature variance after the shared heat-up (t >= 40 s).
double steady_variance(const sim::RunResult& r) {
  const auto time = r.trace->column("time_s");
  const auto temp = r.trace->column("t_max_c");
  util::RunningStats steady;
  for (std::size_t i = 0; i < time.size(); ++i) {
    if (time[i] >= 40.0) steady.add(temp[i]);
  }
  return steady.variance();
}

/// Smallest step between neighbours; positive iff `ys` strictly rises.
double min_rise(const std::vector<double>& ys) {
  double rise = kInf;
  for (std::size_t i = 1; i < ys.size(); ++i) {
    rise = std::min(rise, ys[i] - ys[i - 1]);
  }
  return rise;
}

double variance_ratio(double fan, double dtpm) {
  return fan / std::max(dtpm, 1e-9);
}

/// Levels of `table` whose frequency differs from the paper's list, plus
/// any length difference.
double opp_mismatches(const power::OppTable& table,
                      const std::vector<double>& paper_mhz) {
  const auto& points = table.points();
  double mismatches =
      std::fabs(double(points.size()) - double(paper_mhz.size()));
  for (std::size_t i = 0; i < std::min(points.size(), paper_mhz.size()); ++i) {
    if (std::fabs(points[i].frequency_hz / 1e6 - paper_mhz[i]) > 0.5) {
      ++mismatches;
    }
  }
  return mismatches;
}

// --- Claims ------------------------------------------------------------------

void chapter4_claims(std::vector<Claim>& claims) {
  const sim::CalibrationArtifacts& art = sim::default_calibration();
  const auto big = power::resource_index(power::Resource::kBigCluster);
  const power::LeakageModel leak(art.model.leakage[big]);
  const double alpha_c = art.leakage_fits[big].alpha_c_light;

  // Fig. 4.2: furnace samples grouped into 10 C die-temperature buckets.
  std::map<int, util::RunningStats> by_bucket;
  std::vector<double> predicted, measured;
  for (const auto& s : art.furnace_samples[big]) {
    by_bucket[int((s.temp_c + 5.0) / 10.0) * 10].add(s.total_power_w);
    predicted.push_back(leak.power_w(s.temp_c, s.vdd_v) +
                        power::dynamic_power_w(alpha_c, s.vdd_v,
                                               s.frequency_hz));
    measured.push_back(s.total_power_w);
  }
  std::vector<double> bucket_means;
  for (const auto& entry : by_bucket) {
    bucket_means.push_back(entry.second.mean());
  }
  claims.push_back({"Fig. 4.2",
                    "smallest rise of mean furnace power between adjacent "
                    "10 C buckets [W]",
                    "total power rises with temperature", Kind::kOrdering,
                    min_rise(bucket_means), 0.0, kInf,
                    "shape only: every step up", ""});

  const double v_ref = art.model.leakage[big].v_ref;
  std::vector<double> leak_vs_t;
  for (double t = 40.0; t <= 80.0 + 1e-9; t += 5.0) {
    leak_vs_t.push_back(leak.power_w(t, v_ref));
  }
  claims.push_back({"Fig. 4.3", "fitted leakage P(80 C) / P(40 C)",
                    "roughly 3x", Kind::kBand,
                    leak_vs_t.back() / leak_vs_t.front(), 2.5, 3.5,
                    "'roughly 3' at its quoted precision", ""});
  claims.push_back({"Fig. 4.3",
                    "smallest rise of fitted leakage per 5 C, 40-80 C [W]",
                    "leakage grows with temperature", Kind::kOrdering,
                    min_rise(leak_vs_t), 0.0, kInf,
                    "shape only: every step up", ""});

  // Fig. 4.5 at 1.6 GHz (dynamic power has no temperature term, so only
  // leakage's shape is a claim); Fig. 4.6 at 60 C across Table 6.1.
  const power::OppTable opps = power::big_cluster_opp_table();
  const double v16 = opps.voltage_at(1.6e9);
  std::vector<double> leak_rises;
  for (double t = 45.0; t <= 80.0 + 1e-9; t += 5.0) {
    leak_rises.push_back(leak.power_w(t, v16) - leak.power_w(t - 5.0, v16));
  }
  claims.push_back({"Fig. 4.5",
                    "smallest growth of the 5 C leakage rise, 40-80 C at "
                    "1.6 GHz [W]",
                    "leakage exponential in temperature", Kind::kOrdering,
                    min_rise(leak_rises), 0.0, kInf,
                    "shape only: convex, each rise larger", ""});

  const power::Opp& f_lo = opps.points().front();
  const power::Opp& f_hi = opps.points().back();
  const double dyn_ratio =
      power::dynamic_power_w(alpha_c, f_hi.voltage_v, f_hi.frequency_hz) /
      power::dynamic_power_w(alpha_c, f_lo.voltage_v, f_lo.frequency_hz);
  claims.push_back({"Fig. 4.6", "dynamic power P(1600 MHz) / P(800 MHz)",
                    "superlinear in f", Kind::kOrdering, dyn_ratio,
                    f_hi.frequency_hz / f_lo.frequency_hz, kInf,
                    "above the frequency ratio", ""});
  claims.push_back({"Fig. 4.6", "leakage P(1600 MHz) / P(800 MHz) at 60 C",
                    "rises only slightly, through V", Kind::kOrdering,
                    leak.power_w(60.0, f_hi.voltage_v) /
                        leak.power_w(60.0, f_lo.voltage_v),
                    1.0, dyn_ratio, "rises, but less than dynamic power",
                    ""});

  claims.push_back({"Fig. 4.7",
                    "MAPE of the fitted power model vs measured furnace "
                    "power [%]",
                    "predicted curve overlays the measured one",
                    Kind::kBound, util::mape(predicted, measured), -kInf, 5.0,
                    "curves that overlay on the figure's scale: within 5 %",
                    "sysid::fit_leakage clamps the big cluster's negative "
                    "fitted I_gate to 0 without refitting the other terms, "
                    "so the model reads high by |I_gate| V everywhere"});

  // Fig. 4.8: the big cluster's PRBS segment and the identified model.
  util::RunningStats prbs_power;
  const sysid::TraceSegment& prbs = art.excitation_segments[big];
  for (std::size_t k = 0; k < prbs.rows(); ++k) {
    prbs_power.add(prbs.powers_w[k * power::kResourceCount + big]);
  }
  claims.push_back({"Fig. 4.8", "lowest big-cluster power under PRBS [W]",
                    "~0.5 W", Kind::kBand, prbs_power.min(), 0.45, 0.55,
                    "'~0.5' at its quoted precision", kCauseUnknown});
  claims.push_back({"Fig. 4.8", "highest big-cluster power under PRBS [W]",
                    "~3 W", Kind::kBand, prbs_power.max(), 2.5, 3.5,
                    "'~3' at its quoted precision", kCauseUnknown});
  claims.push_back({"Fig. 4.8", "spectral radius of the identified A_s",
                    "a stable model (Eq. 5.3)", Kind::kOrdering,
                    art.model.thermal.stability_radius(), -kInf, 1.0,
                    "a discrete-time model is stable below 1", ""});
  claims.push_back({"Fig. 4.8", "one-step RMS residual of the ARX fit [C]",
                    "no scalar; ~1 C at 1 s (Fig. 4.9)", Kind::kBound,
                    art.arx.rms_residual_c, -kInf, 1.0,
                    "one 0.1 s step no worse than the 1 s error", ""});
}

void prediction_claims(std::vector<Claim>& claims) {
  // Fig. 6.2's observer sweep; blowfish keeps its trace for Fig. 4.9.
  const auto& suite = workload::standard_suite();
  std::vector<sim::ExperimentConfig> configs;
  for (const auto& b : suite) {
    configs.push_back(
        config_for(b.name, "default+fan", b.name == "blowfish", 10));
  }
  // Fig. 4.10's horizons on templerun, 0.5 s to 5 s.
  const std::vector<unsigned> horizons{5, 10, 20, 30, 40, 50};
  for (unsigned steps : horizons) {
    configs.push_back(config_for("templerun", "default+fan", false, steps));
  }
  const std::vector<sim::RunResult> results = run_batch(configs);

  double sum = 0.0, worst = 0.0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    sum += results[i].prediction_mape;
    worst = std::max(worst, results[i].prediction_mape);
  }
  claims.push_back({"Fig. 6.2", "suite mean of per-benchmark mean error [%]",
                    "< 3 %", Kind::kBound, sum / double(suite.size()), -kInf,
                    3.0, "the paper's bound", ""});
  claims.push_back({"Fig. 6.2", "worst per-benchmark mean error [%]",
                    "never above 4 %", Kind::kBound, worst, -kInf, 4.0,
                    "the paper's bound", ""});

  const sim::RunResult& blowfish = results[0];
  const auto measured = blowfish.trace->column("t_big0_c");
  const auto predicted = blowfish.trace->column("pred_t0_for_now_c");
  std::vector<double> m, p;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    if (!std::isnan(predicted[i])) {
      m.push_back(measured[i]);
      p.push_back(predicted[i]);
    }
  }
  const char* const within_1c = "'~1 C' at its quoted precision";
  claims.push_back({"Fig. 4.9", "blowfish core-0 mean error, 1 s ahead [%]",
                    "< 3 %", Kind::kBound, util::mape(p, m), -kInf, 3.0,
                    "the paper's bound", ""});
  claims.push_back({"Fig. 4.9", "blowfish core-0 MAE, 1 s ahead [C]",
                    "~1 C", Kind::kBound, util::mean_absolute_error(p, m),
                    -kInf, 1.5, within_1c, ""});
  claims.push_back({"Fig. 4.9",
                    "blowfish mean error over four hotspots, 1 s ahead [%]",
                    "< 3 %", Kind::kBound, blowfish.prediction_mape, -kInf,
                    3.0, "the paper's bound", ""});
  claims.push_back({"Fig. 4.9", "blowfish MAE over four hotspots [C]",
                    "~1 C", Kind::kBound, blowfish.prediction_mae_c, -kInf,
                    1.5, within_1c, ""});

  std::vector<double> errors;
  for (std::size_t i = suite.size(); i < results.size(); ++i) {
    errors.push_back(results[i].prediction_mape);
  }
  claims.push_back({"Fig. 4.10", "templerun mean error 1 s ahead [%]",
                    "< 3 % at 1 s", Kind::kBound, errors[1], -kInf, 3.0,
                    "the paper's bound", ""});
  claims.push_back({"Fig. 4.10", "templerun mean error 5 s ahead [%]",
                    "within ~7 % at 5 s", Kind::kBound, errors.back(), -kInf,
                    7.5, "'~7' at its quoted precision", kCauseUnknown});
  claims.push_back({"Fig. 4.10", "error 5 s ahead / error 1 s ahead",
                    "error grows with the horizon", Kind::kOrdering,
                    errors.back() / errors[1], 1.0, kInf, "shape only", ""});
  claims.push_back({"Fig. 4.10",
                    "smallest error rise between horizons 0.5..5 s [%]",
                    "error grows with the horizon", Kind::kOrdering,
                    min_rise(errors), 0.0, kInf, "shape only: every step up",
                    ""});
}

/// Figs. 1.1 and 6.3-6.8, and the suite-wide Fig. 6.9 and Table 6.4.
void policy_claims(std::vector<Claim>& claims) {
  // Traced runs: templerun/basicmath under the three §6.2 configurations
  // (Figs. 1.1, 6.3-6.5), one benchmark per activity class under
  // default+fan and DTPM (Figs. 6.6-6.8).
  const std::vector<std::string> hot{"templerun", "basicmath"};
  const std::vector<std::string> classes{"dijkstra", "patricia", "matmul"};
  std::vector<sim::ExperimentConfig> configs;
  for (const std::string& b : hot) {
    for (const char* policy : {"no-fan", "default+fan", "dtpm"}) {
      configs.push_back(config_for(b, policy, true));
    }
  }
  for (const std::string& b : classes) {
    for (const char* policy : {"default+fan", "dtpm"}) {
      configs.push_back(config_for(b, policy, true));
    }
  }
  const std::vector<sim::RunResult> traced = run_batch(configs);

  // Fig. 1.1's "no-fan runs hotter" is Fig. 6.3's templerun ordering row.
  const sim::RunResult& tr_nofan = traced[0];
  const sim::RunResult& tr_fan = traced[1];
  claims.push_back({"Fig. 1.1", "templerun peak with the fan [C]",
                    "the fan holds the 57-70 C band", Kind::kBand,
                    tr_fan.max_temp_stats.max(), 57.0, 70.0,
                    "the paper's band", ""});
  claims.push_back({"Fig. 1.1", "templerun peak without the fan [C]",
                    "rises past ~85 C", Kind::kBound,
                    tr_nofan.max_temp_stats.max(), 84.5, kInf,
                    "'~85' at its quoted precision", kCauseUnknown});

  const char* const figures_63[] = {"Fig. 6.3", "Fig. 6.4"};
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const std::string fig = figures_63[i];
    const std::string& b = hot[i];
    const sim::RunResult& nofan = traced[3 * i];
    const sim::RunResult& fan = traced[3 * i + 1];
    const sim::RunResult& dtpm = traced[3 * i + 2];
    claims.push_back({fig, b + " DTPM time above 63 C [s]", "0 s",
                      Kind::kExact, dtpm.violation_time_s, 0.0, 0.0,
                      "DTPM never exceeds t_max", ""});
    claims.push_back({fig, b + " DTPM peak [C]", "just below 63 C",
                      Kind::kBound, dtpm.max_temp_stats.max(), -kInf, 63.0,
                      "the constraint", ""});
    claims.push_back({fig, b + " no-fan peak vs fan peak [C]",
                      "no-fan runs hotter than the fan", Kind::kOrdering,
                      nofan.max_temp_stats.max(), fan.max_temp_stats.max(),
                      kInf, "shape only", ""});
    claims.push_back({fig, b + " no-fan time above 63 C [s]",
                      "no-fan blows through the constraint", Kind::kOrdering,
                      nofan.violation_time_s, 0.0, kInf, "shape only", ""});
  }
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const std::string& b = hot[i];
    const sim::RunResult& nofan = traced[3 * i];
    const sim::RunResult& fan = traced[3 * i + 1];
    const sim::RunResult& dtpm = traced[3 * i + 2];
    claims.push_back(
        {"Fig. 6.5", b + " full-window variance, fan / DTPM",
         "up to ~6x", Kind::kBand,
         variance_ratio(fan.max_temp_stats.variance(),
                        dtpm.max_temp_stats.variance()),
         5.5, 6.5, "'~6' at its quoted precision",
         b == "basicmath" ? "the shared heat-up transient dominates the "
                            "full window; see the t >= 40 s row"
                          : kCauseUnknown});
    claims.push_back({"Fig. 6.5", b + " variance for t >= 40 s, fan / DTPM",
                      "DTPM varies less than the fan", Kind::kOrdering,
                      variance_ratio(steady_variance(fan),
                                     steady_variance(dtpm)),
                      1.0, kInf, "shape only", ""});
    claims.push_back({"Fig. 6.5", b + " DTPM mean vs no-fan mean [C]",
                      "DTPM runs cooler on average than no-fan",
                      Kind::kOrdering, dtpm.max_temp_stats.mean(), -kInf,
                      nofan.max_temp_stats.mean(), "shape only", ""});
  }

  const std::size_t c0 = 3 * hot.size();
  const sim::RunResult& dij_def = traced[c0];
  const sim::RunResult& dij_dtpm = traced[c0 + 1];
  const sim::RunResult& pat_def = traced[c0 + 2];
  const sim::RunResult& pat_dtpm = traced[c0 + 3];
  const sim::RunResult& mm_def = traced[c0 + 4];
  const sim::RunResult& mm_dtpm = traced[c0 + 5];
  claims.push_back({"Fig. 6.6", "dijkstra DTPM frequency caps",
                    "no throttling needed", Kind::kExact,
                    double(dij_dtpm.dtpm.frequency_cap_events), 0.0, 0.0,
                    "none", ""});
  const double dij_f = column_mean(dij_def, "f_big_mhz");
  claims.push_back({"Fig. 6.6", "dijkstra DTPM mean big frequency [MHz]",
                    "trace matches the default", Kind::kExact,
                    column_mean(dij_dtpm, "f_big_mhz"), dij_f, dij_f,
                    "the default's mean", ""});
  claims.push_back({"Fig. 6.6", "dijkstra DTPM power saving [%]",
                    "~3 % (the absent fan)", Kind::kBand,
                    saving_pct(dij_def, dij_dtpm), 2.5, 3.5,
                    "'~3' at its quoted precision", kCauseUnknown});
  const double mm_f = column_mean(mm_dtpm, "f_big_mhz");
  claims.push_back({"Fig. 6.7", "patricia DTPM mean big frequency [MHz]",
                    "mildly capped", Kind::kOrdering,
                    column_mean(pat_dtpm, "f_big_mhz"), mm_f,
                    column_mean(pat_def, "f_big_mhz"),
                    "below the default, above matmul's DTPM run", ""});
  claims.push_back({"Fig. 6.8", "matmul DTPM mean big frequency [MHz]",
                    "clear throttling regions", Kind::kOrdering, mm_f, -kInf,
                    column_mean(mm_def, "f_big_mhz"), "below the default",
                    ""});
  claims.push_back({"Fig. 6.8", "matmul DTPM performance loss [%]",
                    "small execution-time impact", Kind::kBound,
                    loss_pct(mm_def, mm_dtpm), -kInf, 3.3,
                    "at most the paper's suite-average DTPM loss", ""});
  claims.push_back({"Fig. 6.8", "matmul DTPM peak [C]",
                    "stays at the constraint", Kind::kBound,
                    mm_dtpm.max_temp_stats.max(), -kInf, 63.0,
                    "the constraint", ""});

  // Fig. 6.9: the suite x {default+fan, dtpm, reactive} sweep, row-major.
  sim::SweepGrid grid;
  grid.base = config_for("", "default+fan", false);
  for (const auto& b : workload::standard_suite()) {
    grid.benchmarks.push_back(b.name);
  }
  grid.policy_names = {"default+fan", "dtpm", "reactive"};
  const std::vector<sim::RunResult> sweep = run_batch(sim::sweep(grid));

  std::map<workload::PowerClass, util::RunningStats> class_saving;
  std::map<workload::PowerClass, util::RunningStats> class_power;
  util::RunningStats dtpm_loss, react_loss;
  double dtpm_wall_s = 0.0, dtpm_steps = 0.0;
  std::size_t i = 0;
  for (const auto& b : workload::standard_suite()) {
    const sim::RunResult& def = sweep[i++];
    const sim::RunResult& dtpm = sweep[i++];
    const sim::RunResult& react = sweep[i++];
    class_saving[b.power_class].add(saving_pct(def, dtpm));
    class_power[b.power_class].add(def.avg_platform_power_w);
    dtpm_loss.add(loss_pct(def, dtpm));
    react_loss.add(loss_pct(def, react));
    dtpm_wall_s += dtpm.wall_time_s;
    dtpm_steps += double(dtpm.control_steps);
  }
  claims.push_back({"Fig. 6.9", "suite-average DTPM performance loss [%]",
                    "3.3 %", Kind::kBand, dtpm_loss.mean(), 3.25, 3.35,
                    "'3.3' at its quoted precision", kCauseUnknown});
  claims.push_back({"Fig. 6.9", "suite-average reactive performance loss [%]",
                    "~20 %", Kind::kBand, react_loss.mean(), 15.0, 25.0,
                    "'~20' at its quoted precision",
                    "cause not yet found (ROADMAP 1(d)); candidates: "
                    "FPS-capped games lose nothing under a frequency cap, "
                    "and reactive's 0.5 s action period and 6 C hysteresis"});
  claims.push_back({"Fig. 6.9", "DTPM vs reactive suite-average loss [%]",
                    "DTPM loses less than reactive", Kind::kOrdering,
                    dtpm_loss.mean(), -kInf, react_loss.mean(), "shape only",
                    ""});
  const double save_low = class_saving[workload::PowerClass::kLow].mean();
  const double save_med = class_saving[workload::PowerClass::kMedium].mean();
  const double save_high = class_saving[workload::PowerClass::kHigh].mean();
  claims.push_back({"Fig. 6.9", "low-activity mean power saving [%]", "~3 %",
                    Kind::kBand, save_low, 2.5, 3.5,
                    "'~3' at its quoted precision", kCauseUnknown});
  claims.push_back({"Fig. 6.9", "medium-activity mean power saving [%]",
                    "~8 %", Kind::kBand, save_med, 7.5, 8.5,
                    "'~8' at its quoted precision", kCauseUnknown});
  claims.push_back({"Fig. 6.9", "high-activity mean power saving [%]",
                    "~14 %", Kind::kBand, save_high, 13.5, 14.5,
                    "'~14' at its quoted precision", kCauseUnknown});
  claims.push_back({"Fig. 6.9", "medium-activity saving between low and high "
                                "[%]",
                    "savings order low < medium < high", Kind::kOrdering,
                    save_med, save_low, save_high, "shape only", ""});
  claims.push_back({"Table 6.4",
                    "medium-class default+fan platform power between low "
                    "and high [W]",
                    "power classes order low < medium < high",
                    Kind::kOrdering,
                    class_power[workload::PowerClass::kMedium].mean(),
                    class_power[workload::PowerClass::kLow].mean(),
                    class_power[workload::PowerClass::kHigh].mean(),
                    "shape only", ""});
  claims.push_back({"§6.2",
                    "wall time per control interval, Fig. 6.9 DTPM runs "
                    "[ms]",
                    "no noticeable overhead", Kind::kBound,
                    1e3 * dtpm_wall_s / dtpm_steps, -kInf, 1.0,
                    "1 % of the 100 ms interval; the wall time covers the "
                    "whole simulated interval, so it bounds the decision "
                    "cost from above",
                    ""});
}

void multithreaded_claims(std::vector<Claim>& claims) {
  std::vector<sim::ExperimentConfig> configs;
  for (const auto& b : workload::multithreaded_suite()) {
    configs.push_back(config_for(b.name, "default+fan", false));
    configs.push_back(config_for(b.name, "dtpm", false));
  }
  const std::vector<sim::RunResult> results = run_batch(configs);
  std::size_t i = 0;
  for (const auto& b : workload::multithreaded_suite()) {
    const sim::RunResult& def = results[i++];
    const sim::RunResult& dtpm = results[i++];
    claims.push_back({"Fig. 6.10", b.name + " DTPM power saving [%]",
                      "double-digit savings", Kind::kBound,
                      saving_pct(def, dtpm), 10.0, kInf, "at least 10 %",
                      ""});
    claims.push_back({"Fig. 6.10", b.name + " DTPM performance loss [%]",
                      "only a few percent loss", Kind::kBound,
                      loss_pct(def, dtpm), -kInf, 5.0, "under 5 %",
                      b.name == "fft_mt" ? kCauseUnknown : ""});
    claims.push_back({"Fig. 6.10", b.name + " DTPM peak [C]",
                      "held below the 63 C constraint", Kind::kBound,
                      dtpm.max_temp_stats.max(), -kInf, 63.0,
                      "the constraint", ""});
  }
}

/// DTPM design choices on basicmath, one parameter at a time (§5).
void ablation_claims(std::vector<Claim>& claims) {
  sim::SweepGrid grid;
  grid.base = config_for("basicmath", "dtpm", false);
  // Each variant changes one setting of the paper's defaults (1 s horizon,
  // the hottest core's budget row, a 0.75 C guard band, T_max 63 C).
  auto variant = [&grid](auto&& change) {
    core::DtpmParams params;
    change(params);
    grid.dtpm_params.push_back(params);
    return grid.dtpm_params.size() - 1;
  };
  const std::size_t paper = variant([](core::DtpmParams&) {});
  const std::size_t h_short =
      variant([](core::DtpmParams& p) { p.horizon_steps = 2; });
  const std::size_t h_long =
      variant([](core::DtpmParams& p) { p.horizon_steps = 40; });
  const std::size_t strict_rows = variant([](core::DtpmParams& p) {
    p.row_policy = core::BudgetRowPolicy::kAllHotspots;
  });
  const std::size_t no_guard =
      variant([](core::DtpmParams& p) { p.guard_band_c = 0.0; });
  const std::size_t wide_guard =
      variant([](core::DtpmParams& p) { p.guard_band_c = 3.0; });
  const std::vector<double> t_maxes{58.0, 60.0, 63.0, 66.0, 70.0};
  const std::size_t t0 = grid.dtpm_params.size();
  for (double t : t_maxes) {
    variant([t](core::DtpmParams& p) { p.t_max_c = t; });
  }
  const std::vector<sim::RunResult> r = run_batch(sim::sweep(grid));

  claims.push_back({"Ablation", "peak at a 0.2 s horizon vs 1 s [C]",
                    "shorter horizons react late and overshoot",
                    Kind::kOrdering, r[h_short].max_temp_stats.max(),
                    r[paper].max_temp_stats.max(), kInf, "shape only", ""});
  claims.push_back({"Ablation", "execution time at a 4 s horizon vs 1 s [s]",
                    "longer horizons over-throttle", Kind::kOrdering,
                    r[h_long].execution_time_s, r[paper].execution_time_s,
                    kInf, "shape only", ""});
  claims.push_back({"Ablation",
                    "execution time with all-hotspot rows (Eq. 5.2) vs the "
                    "hottest core's (Eq. 5.5) [s]",
                    "the strict variant is more conservative", Kind::kBound,
                    r[strict_rows].execution_time_s,
                    r[paper].execution_time_s, kInf,
                    "at least as slow; equal when the hottest row binds", ""});
  claims.push_back({"Ablation", "time above 63 C with no guard band [s]",
                    "the guard band absorbs prediction bias",
                    Kind::kOrdering, r[no_guard].violation_time_s,
                    r[paper].violation_time_s, kInf,
                    "above the 0.75 C default's", ""});
  claims.push_back({"Ablation", "execution time with a 3 C guard band [s]",
                    "a wider guard band costs frequency", Kind::kOrdering,
                    r[wide_guard].execution_time_s, r[paper].execution_time_s,
                    kInf, "above the 0.75 C default's", ""});
  double worst_excess = -kInf;
  std::vector<double> exec_by_t_max;
  for (std::size_t k = 0; k < t_maxes.size(); ++k) {
    worst_excess = std::max(
        worst_excess, r[t0 + k].max_temp_stats.max() - t_maxes[k]);
    exec_by_t_max.push_back(-r[t0 + k].execution_time_s);
  }
  claims.push_back({"Ablation", "largest peak minus T_max, T_max 58-70 C [C]",
                    "the trigger can move, the algorithm holds it (§5.1)",
                    Kind::kBound, worst_excess, -kInf, 0.0,
                    "never above each T_max", ""});
  claims.push_back({"Ablation",
                    "smallest execution-time drop per T_max step up [s]",
                    "tighter constraints trade time for temperature",
                    Kind::kOrdering, min_rise(exec_by_t_max), 0.0, kInf,
                    "shape only: every step faster", ""});
}

/// Chapter 7's budget distribution (Fig. 7.1, Eq. 7.3) over a budget sweep.
void budget_claims(std::vector<Claim>& claims) {
  // Normalized Table 6.1/6.3 frequencies, cost ~ c_i / f_i and power
  // ~ a_i f_i^3 in the spirit of Eqs. 7.1/7.2.
  const std::vector<core::BudgetComponent> comps{
      {"big-cpu",
       {0.50, 0.5625, 0.625, 0.6875, 0.75, 0.8125, 0.875, 0.9375, 1.0},
       1.0, 2.4},
      {"gpu", {0.332, 0.499, 0.657, 0.901, 1.0}, 0.7, 1.3},
      {"little-cpu",
       {0.4167, 0.5, 0.5833, 0.6667, 0.75, 0.8333, 0.9167, 1.0}, 0.25, 0.4}};
  const std::vector<std::size_t> top{comps[0].frequencies_hz.size() - 1,
                                     comps[1].frequencies_hz.size() - 1,
                                     comps[2].frequencies_hz.size() - 1};
  const double p_max = core::distribution_power(comps, top);

  std::vector<double> cpu_first_gaps;
  double last_greedy = 0.0, last_cpu_first = 0.0;
  int cpu_only_infeasible = 0;
  for (double fraction : {0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3}) {
    const double budget = fraction * p_max;
    // CPU-only: step the big CPU down until the budget is met.
    std::vector<std::size_t> cpu_first = top;
    while (core::distribution_power(comps, cpu_first) > budget &&
           cpu_first[0] > 0) {
      --cpu_first[0];
    }
    const core::DistributionResult greedy =
        core::distribute_greedy(comps, budget);
    const core::DistributionResult optimal =
        core::distribute_branch_and_bound(comps, budget);
    if (core::distribution_power(comps, cpu_first) > budget) {
      if (greedy.feasible) ++cpu_only_infeasible;
      continue;
    }
    const double cost = core::distribution_cost(comps, cpu_first);
    cpu_first_gaps.push_back(100.0 * (cost - optimal.cost) / optimal.cost);
    last_greedy = greedy.cost;
    last_cpu_first = cost;
  }
  claims.push_back({"Fig. 7.1",
                    "smallest growth of CPU-only throttling's cost gap to "
                    "the optimum per budget step [%]",
                    "CPU-only throttling pays a growing penalty",
                    Kind::kOrdering, min_rise(cpu_first_gaps), 0.0, kInf,
                    "shape only: every step larger", ""});
  claims.push_back({"Fig. 7.1",
                    "greedy (Eq. 7.3) cost vs CPU-only at the tightest "
                    "budget CPU-only meets",
                    "distributing the budget beats throttling the CPU alone",
                    Kind::kOrdering, last_greedy, -kInf, last_cpu_first,
                    "shape only", ""});
  claims.push_back({"Fig. 7.1",
                    "budgets met by the greedy distribution but not by "
                    "CPU-only throttling",
                    "distributing the budget beats throttling the CPU alone",
                    Kind::kOrdering, double(cpu_only_infeasible), 0.0, kInf,
                    "shape only: at least one", ""});
}

void opp_claims(std::vector<Claim>& claims) {
  claims.push_back({"Table 6.1", "big-cluster OPPs differing from the paper",
                    "800-1600 MHz in 100 MHz steps", Kind::kExact,
                    opp_mismatches(power::big_cluster_opp_table(),
                                   {800, 900, 1000, 1100, 1200, 1300, 1400,
                                    1500, 1600}),
                    0.0, 0.0, "the paper's list", ""});
  claims.push_back({"Table 6.2",
                    "little-cluster OPPs differing from the paper",
                    "500-1200 MHz in 100 MHz steps", Kind::kExact,
                    opp_mismatches(power::little_cluster_opp_table(),
                                   {500, 600, 700, 800, 900, 1000, 1100,
                                    1200}),
                    0.0, 0.0, "the paper's list", ""});
  claims.push_back({"Table 6.3", "GPU OPPs differing from the paper",
                    "177/266/350/480/533 MHz", Kind::kExact,
                    opp_mismatches(power::gpu_opp_table(),
                                   {177, 266, 350, 480, 533}),
                    0.0, 0.0, "the paper's list", ""});
}

// --- Output ------------------------------------------------------------------

std::string limits(const Claim& c) {
  char buf[96];
  const bool strict = c.kind == Kind::kOrdering;
  if (c.kind == Kind::kExact) {
    std::snprintf(buf, sizeof buf, "= %.6g", c.lo);
  } else if (std::isinf(c.lo)) {
    std::snprintf(buf, sizeof buf, "%s %.6g", strict ? "<" : "<=", c.hi);
  } else if (std::isinf(c.hi)) {
    std::snprintf(buf, sizeof buf, "%s %.6g", strict ? ">" : ">=", c.lo);
  } else {
    std::snprintf(buf, sizeof buf, strict ? "(%.6g, %.6g)" : "[%.6g, %.6g]",
                  c.lo, c.hi);
  }
  return buf;
}

util::JsonValue limit_json(double v) {
  return std::isinf(v) ? util::JsonValue() : util::JsonValue(v);
}

}  // namespace

int main() {
  const std::string platform = sim::default_platform()->name;
  std::vector<Claim> claims;
  chapter4_claims(claims);
  prediction_claims(claims);
  policy_claims(claims);
  multithreaded_claims(claims);
  ablation_claims(claims);
  budget_claims(claims);
  opp_claims(claims);

  std::printf("# Paper claims on %s\n\n", platform.c_str());
  std::printf("| status | figure | quantity | measured | paper | accepts | "
              "kind | why / known-gap cause |\n");
  std::printf("|---|---|---|---|---|---|---|---|\n");
  std::map<std::string, int> counts;
  util::JsonArray rows;
  for (const Claim& c : claims) {
    const char* s = status(c);
    ++counts[s];
    std::string why = c.tolerance;
    if (std::string(s) == "known-gap") why += "; gap: " + c.gap_cause;
    std::printf("| %s | %s | %s | %.6g | %s | %s | %s | %s |\n", s,
                c.figure.c_str(), c.quantity.c_str(), c.measured,
                c.paper.c_str(), limits(c).c_str(), to_string(c.kind),
                why.c_str());

    util::JsonValue row((util::JsonObject()));
    row.set("figure", c.figure);
    row.set("quantity", c.quantity);
    row.set("paper", c.paper);
    row.set("kind", to_string(c.kind));
    row.set("measured", c.measured);
    row.set("lo", limit_json(c.lo));
    row.set("hi", limit_json(c.hi));
    row.set("tolerance", c.tolerance);
    row.set("status", s);
    if (!c.gap_cause.empty()) row.set("gap_cause", c.gap_cause);
    rows.push_back(std::move(row));
  }
  std::printf("\n%zu rows: %d pass, %d known-gap, %d fail\n", claims.size(),
              counts["pass"], counts["known-gap"], counts["fail"]);

  util::JsonValue doc((util::JsonObject()));
  doc.set("platform", platform);
  doc.set("pass", counts["pass"]);
  doc.set("known_gap", counts["known-gap"]);
  doc.set("fail", counts["fail"]);
  doc.set("claims", util::JsonValue(std::move(rows)));
  util::json_write_file("claims.json", doc);
  return counts["fail"] == 0 ? 0 : 1;
}
