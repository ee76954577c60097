#include "sysid/arx_fit.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace dtpm::sysid {
namespace {

using power::ResourceVector;

// Ground-truth system used to synthesize identification data: two states
// driven by the four power resources.
ThermalStateModel truth() {
  ThermalStateModel m;
  m.a = util::Matrix{{0.92, 0.03}, {0.02, 0.90}};
  m.b = util::Matrix{{0.30, 0.05, 0.10, 0.02}, {0.04, 0.40, 0.03, 0.08}};
  m.ts_s = 0.1;
  m.ambient_ref_c = 25.0;
  return m;
}

/// Appends (temps, p) as one row of `seg` and returns the next state.
std::vector<double> record(const ThermalStateModel& m, TraceSegment& seg,
                           const std::vector<double>& temps,
                           const std::vector<double>& noisy,
                           const ResourceVector& p) {
  seg.append(noisy.data(), p);
  return m.predict_one(temps, std::vector<double>(p.begin(), p.end()));
}

TraceSegment simulate(const ThermalStateModel& m, std::size_t steps,
                      util::Rng& rng, double noise_c = 0.0,
                      std::vector<double> start = {30.0, 30.0}) {
  TraceSegment seg;
  seg.width = start.size();
  std::vector<double> temps = std::move(start);
  for (std::size_t k = 0; k < steps; ++k) {
    // Binary excitation of every input with different switching patterns.
    const ResourceVector p{rng.bernoulli(0.5) ? 2.5 : 0.4,
                           rng.bernoulli(0.5) ? 1.5 : 0.2,
                           rng.bernoulli(0.5) ? 1.8 : 0.3,
                           rng.bernoulli(0.5) ? 0.9 : 0.1};
    std::vector<double> noisy = temps;
    for (double& t : noisy) t += rng.gaussian(0.0, noise_c);
    temps = record(m, seg, temps, noisy, p);
  }
  return seg;
}

TEST(ArxFit, RecoversNoiseFreeSystemExactly) {
  util::Rng rng(11);
  const ThermalStateModel m = truth();
  const TraceSegment seg = simulate(m, 400, rng);
  const ArxFitResult fit = fit_thermal_model({seg}, 0.1);
  EXPECT_TRUE(fit.model.a.approx_equal(m.a, 1e-6));
  EXPECT_TRUE(fit.model.b.approx_equal(m.b, 1e-6));
  EXPECT_LT(fit.rms_residual_c, 1e-6);
  EXPECT_EQ(fit.sample_count, 399u);
}

TEST(ArxFit, RecoversUnderMeasurementNoise) {
  util::Rng rng(13);
  const ThermalStateModel m = truth();
  const TraceSegment seg = simulate(m, 5000, rng, 0.05);
  const ArxFitResult fit = fit_thermal_model({seg}, 0.1);
  EXPECT_TRUE(fit.model.a.approx_equal(m.a, 0.05));
  EXPECT_TRUE(fit.model.b.approx_equal(m.b, 0.05));
  EXPECT_LT(fit.model.stability_radius(), 1.0);
}

TEST(ArxFit, ConcatenatesSegmentsWithoutCrossPairs) {
  // Two segments whose endpoints are wildly different: a correct fit never
  // forms a regression pair across the boundary, so recovery stays exact.
  util::Rng rng(17);
  const ThermalStateModel m = truth();
  const TraceSegment a = simulate(m, 200, rng, 0.0, {30.0, 30.0});
  const TraceSegment b = simulate(m, 200, rng, 0.0, {80.0, 20.0});
  const ArxFitResult fit = fit_thermal_model({a, b}, 0.1);
  EXPECT_TRUE(fit.model.a.approx_equal(m.a, 1e-6));
  EXPECT_EQ(fit.sample_count, 398u);
}

TEST(ArxFit, PerResourceExcitationIdentifiesAllInputColumns) {
  // Mimic the paper's protocol: excite one input per segment while holding
  // the others constant; the joint fit must still recover every B column.
  util::Rng rng(19);
  const ThermalStateModel m = truth();
  const ResourceVector idle{0.4, 0.2, 0.3, 0.1};
  std::vector<TraceSegment> segments(power::kResourceCount);
  for (std::size_t excited = 0; excited < segments.size(); ++excited) {
    TraceSegment& seg = segments[excited];
    seg.width = 2;
    std::vector<double> temps{30.0, 30.0};
    for (int k = 0; k < 600; ++k) {
      ResourceVector p = idle;
      if (rng.bernoulli(0.5)) p[excited] += 2.0;
      temps = record(m, seg, temps, temps, p);
    }
  }
  const ArxFitResult fit = fit_thermal_model(segments, 0.1);
  EXPECT_TRUE(fit.model.b.approx_equal(m.b, 1e-4));
}

TEST(ArxFit, ReducedOrderFitStaysStable) {
  // Fit a 1-state model to 2-state data (the unmodeled slow pole situation
  // of the real platform): the result is biased but must remain stable.
  util::Rng rng(23);
  const ThermalStateModel m = truth();
  TraceSegment full = simulate(m, 2000, rng, 0.02);
  TraceSegment reduced;
  reduced.width = 1;
  for (std::size_t k = 0; k < full.rows(); ++k) {
    reduced.temps_c.push_back(full.temps_c[k * full.width]);
  }
  reduced.powers_w = full.powers_w;
  const ArxFitResult fit = fit_thermal_model({reduced}, 0.1);
  EXPECT_EQ(fit.model.state_dim(), 1u);
  EXPECT_EQ(fit.model.input_dim(), power::kResourceCount);
  EXPECT_LT(fit.model.stability_radius(), 1.0);
  EXPECT_GT(fit.rms_residual_c, 0.0);
}

/// A well-formed two-state segment of `rows` rows.
TraceSegment flat_segment(std::size_t rows) {
  TraceSegment seg;
  seg.width = 2;
  for (std::size_t k = 0; k < rows; ++k) {
    const double t[2] = {30.0 + double(k), 31.0 - double(k)};
    seg.append(t, {1.0 + double(k % 2), 0.5, 0.2 * double(k % 3), 0.1});
  }
  return seg;
}

TEST(ArxFit, ValidationErrors) {
  EXPECT_THROW(fit_thermal_model({}, 0.1), std::invalid_argument);
  // The well-formed base case fits, so each throw below is its own defect.
  EXPECT_NO_THROW(fit_thermal_model({flat_segment(40)}, 0.1));

  TraceSegment zero_width = flat_segment(40);
  zero_width.width = 0;
  EXPECT_THROW(fit_thermal_model({zero_width}, 0.1), std::invalid_argument);

  TraceSegment ragged_temps = flat_segment(40);
  ragged_temps.temps_c.push_back(30.0);  // 81 values at width 2
  EXPECT_THROW(fit_thermal_model({ragged_temps}, 0.1), std::invalid_argument);

  TraceSegment short_powers = flat_segment(40);
  short_powers.powers_w.resize(39 * power::kResourceCount);
  EXPECT_THROW(fit_thermal_model({short_powers}, 0.1), std::invalid_argument);
  TraceSegment partial_power_row = flat_segment(40);
  partial_power_row.powers_w.pop_back();
  EXPECT_THROW(fit_thermal_model({partial_power_row}, 0.1),
               std::invalid_argument);

  EXPECT_THROW(fit_thermal_model({flat_segment(1)}, 0.1),
               std::invalid_argument);
  EXPECT_THROW(fit_thermal_model({flat_segment(40), flat_segment(0)}, 0.1),
               std::invalid_argument);

  TraceSegment wider;
  wider.width = 3;
  for (int k = 0; k < 40; ++k) {
    const double t[3] = {30.0, 31.0, 32.0};
    wider.append(t, {1.0, 0.5, 0.2, 0.1});
  }
  EXPECT_THROW(fit_thermal_model({flat_segment(40), wider}, 0.1),
               std::invalid_argument);

  // Well-formed but with fewer regression pairs (4) than unknowns (6).
  EXPECT_THROW(fit_thermal_model({flat_segment(5)}, 0.1),
               std::invalid_argument);
}

}  // namespace
}  // namespace dtpm::sysid
