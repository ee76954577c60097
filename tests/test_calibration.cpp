#include "sim/calibration.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>

#include "golden.hpp"
#include "power/leakage.hpp"
#include "sim/platform_registry.hpp"
#include "soc/soc.hpp"
#include "sysid/model_store.hpp"

#ifndef DTPM_GOLDEN_DIR
#error "build must define DTPM_GOLDEN_DIR (see CMakeLists.txt)"
#endif

namespace dtpm::sim {
namespace {

const CalibrationArtifacts& art() { return default_calibration(); }

TEST(Calibration, ProducesFourByFourThermalModel) {
  const auto& thermal = art().model.thermal;
  EXPECT_EQ(thermal.state_dim(), 4u);
  EXPECT_EQ(thermal.input_dim(), 4u);
  EXPECT_DOUBLE_EQ(thermal.ts_s, 0.1);
}

TEST(Calibration, IdentifiedModelIsStable) {
  EXPECT_LT(art().model.thermal.stability_radius(), 1.0);
}

TEST(Calibration, OneStepResidualIsSmall) {
  // The one-step fit residual should be on the order of the sensor
  // quantization (0.5 C), not degrees.
  EXPECT_LT(art().arx.rms_residual_c, 0.5);
  EXPECT_GT(art().arx.sample_count, 5000u);
}

TEST(Calibration, BigRailHasThermalAuthorityOverEveryCore) {
  // B's big-cluster column must be positive: more big power -> hotter cores.
  const auto& b = art().model.thermal.b;
  const std::size_t big = power::resource_index(power::Resource::kBigCluster);
  for (std::size_t row = 0; row < b.rows(); ++row) {
    EXPECT_GT(b(row, big), 0.0) << "row " << row;
  }
}

TEST(Calibration, FittedLeakageTracksPlantTruth) {
  // Compare fitted vs true big-cluster leakage *power* over the sweep range
  // at the characterization voltage (parameters themselves trade off along
  // a ridge; the power curve is the meaningful quantity).
  const soc::PlantPowerParams truth_params;
  const power::LeakageModel truth(truth_params.big_leakage);
  const power::LeakageModel fitted(
      art().model.leakage[power::resource_index(power::Resource::kBigCluster)]);
  const double v_char =
      art().model.leakage[power::resource_index(power::Resource::kBigCluster)]
          .v_ref;
  for (double t = 45.0; t <= 75.0; t += 10.0) {
    const double expected = truth.power_w(t, v_char);
    EXPECT_NEAR(fitted.power_w(t, v_char), expected, 0.25 * expected) << t;
  }
}

TEST(Calibration, LeakageFitResidualsSmall) {
  for (power::Resource r : power::all_resources()) {
    EXPECT_LT(art().leakage_fits[power::resource_index(r)].rms_residual_w,
              0.02)
        << power::to_string(r);
  }
}

TEST(Calibration, FurnaceSweepCoversPaperRange) {
  // 40..80 C at two operating points (one for mem), ~50 samples per point.
  const auto& big_samples =
      art().furnace_samples[power::resource_index(power::Resource::kBigCluster)];
  EXPECT_GE(big_samples.size(), 400u);
  double t_min = 1e9, t_max = -1e9;
  for (const auto& s : big_samples) {
    t_min = std::min(t_min, s.temp_c);
    t_max = std::max(t_max, s.temp_c);
  }
  // Die temperatures sit a few degrees above the furnace setpoints because
  // even the light workload self-heats; the sweep must still span ~40 C.
  EXPECT_LT(t_min, 52.0);
  EXPECT_GT(t_max, 82.0);
  EXPECT_GT(t_max - t_min, 35.0);
}

TEST(Calibration, AlphaCSeedsInPlausibleRange) {
  const auto& seeds = art().model.initial_alpha_c;
  // Big-cluster 4-thread excitation: around 1.4 nF total.
  EXPECT_GT(seeds[power::resource_index(power::Resource::kBigCluster)], 0.5e-9);
  EXPECT_LT(seeds[power::resource_index(power::Resource::kBigCluster)], 3e-9);
  EXPECT_GT(seeds[power::resource_index(power::Resource::kLittleCluster)],
            0.05e-9);
  EXPECT_GT(seeds[power::resource_index(power::Resource::kGpu)], 0.5e-9);
}

TEST(Calibration, ExcitationSegmentsPerResource) {
  EXPECT_EQ(art().excitation_segments.size(), power::kResourceCount);
  for (const auto& seg : art().excitation_segments) {
    EXPECT_EQ(seg.width, default_platform()->floorplan.sensor_nodes.size());
    EXPECT_GT(seg.rows(), 1000u);
    EXPECT_EQ(seg.temps_c.size(), seg.rows() * seg.width);
    EXPECT_EQ(seg.powers_w.size(), seg.rows() * power::kResourceCount);
  }
}

TEST(Calibration, BigExcitationSpansPaperPowerRange) {
  // Fig. 4.8: the big-cluster PRBS toggles between ~0.5 W and ~3 W.
  const auto& seg =
      art().excitation_segments[power::resource_index(power::Resource::kBigCluster)];
  double p_min = 1e9, p_max = 0.0;
  const std::size_t big = power::resource_index(power::Resource::kBigCluster);
  for (std::size_t k = 0; k < seg.rows(); ++k) {
    const double p = seg.powers_w[k * power::kResourceCount + big];
    p_min = std::min(p_min, p);
    p_max = std::max(p_max, p);
  }
  EXPECT_LT(p_min, 1.3);
  EXPECT_GT(p_max, 2.3);
  EXPECT_GT(p_max / p_min, 2.0);
}

TEST(Calibration, DeterministicForSameOptions) {
  CalibrationOptions options;
  options.prbs_duration_s = 30.0;  // keep this test fast
  const auto a = calibrate_platform(options);
  const auto b = calibrate_platform(options);
  EXPECT_TRUE(a.thermal.a.approx_equal(b.thermal.a, 0.0));
  EXPECT_TRUE(a.thermal.b.approx_equal(b.thermal.b, 0.0));
}

// --- Option validation and errors ---------------------------------------------

CalibrationOptions quick_options() {
  CalibrationOptions options;
  options.prbs_duration_s = 30.0;
  return options;
}

void expect_rejected(const CalibrationOptions& options, const char* field) {
  try {
    calibrate_platform_full(options);
    ADD_FAILURE() << field << ": accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name " << field << ": " << e.what();
  }
}

TEST(CalibrationOptions, RejectsNullPlatform) {
  CalibrationOptions options = quick_options();
  options.platform = nullptr;
  expect_rejected(options, "platform");
}

TEST(CalibrationOptions, RejectsNonPositiveControlInterval) {
  for (double bad : {0.0, -0.1, std::nan("")}) {
    CalibrationOptions options = quick_options();
    options.control_interval_s = bad;
    expect_rejected(options, "control_interval_s");
  }
}

TEST(CalibrationOptions, RejectsNonPositivePlantSubstep) {
  for (double bad : {0.0, -0.02, std::nan("")}) {
    CalibrationOptions options = quick_options();
    options.plant_substep_s = bad;
    expect_rejected(options, "plant_substep_s");
  }
}

TEST(CalibrationOptions, RejectsEmptyOrNonFiniteFurnaceSweep) {
  CalibrationOptions options = quick_options();
  options.furnace_temps_c.clear();
  expect_rejected(options, "furnace_temps_c");
  options.furnace_temps_c = {40.0, std::nan("")};
  expect_rejected(options, "furnace_temps_c");
}

TEST(CalibrationOptions, RejectsNegativeOrUnboundedFurnaceSample) {
  for (double bad : {-1.0, std::nan(""), 1e300}) {
    CalibrationOptions options = quick_options();
    options.furnace_sample_s = bad;
    expect_rejected(options, "furnace_sample_s");
  }
}

TEST(CalibrationOptions, RejectsNegativeOrUnboundedPrbsWarmup) {
  for (double bad : {-1.0, std::nan(""), 1e300}) {
    CalibrationOptions options = quick_options();
    options.prbs_warmup_s = bad;
    expect_rejected(options, "prbs_warmup_s");
  }
}

TEST(CalibrationOptions, RejectsPrbsDurationThatRecordsNoInterval) {
  // 0.05 s is half a control interval: the old code recorded nothing and
  // then read the last power row of an empty segment.
  for (double bad : {0.0, 0.05, -1e6, std::nan("")}) {
    CalibrationOptions options = quick_options();
    options.prbs_duration_s = bad;
    expect_rejected(options, "prbs_duration_s");
  }
}

TEST(CalibrationOptions, RejectsZeroPrbsHold) {
  CalibrationOptions options = quick_options();
  options.prbs_hold_intervals = 0;
  expect_rejected(options, "prbs_hold_intervals");
}

TEST(CalibrationOptions, DecimalFurnaceWindowCountsWholeIntervals) {
  // 0.3 / 0.1 is 2.9999999999999996 in doubles: a truncated count recorded
  // two samples per setpoint instead of three.
  CalibrationOptions options = quick_options();
  options.furnace_sample_s = 0.3;
  const CalibrationArtifacts a = calibrate_platform_full(options);
  for (power::Resource r : power::all_resources()) {
    const std::size_t points = r == power::Resource::kMem ? 1 : 2;
    EXPECT_EQ(a.furnace_samples[power::resource_index(r)].size(),
              3 * points * options.furnace_temps_c.size())
        << power::to_string(r);
  }
}

TEST(CalibrationOptions, DecimalPrbsWarmupSkipsWholeIntervals) {
  // A 0.3 s warmup skips three intervals, so each recording starts at the
  // fourth row of the same run recorded without a warmup.
  CalibrationOptions no_warmup = quick_options();
  no_warmup.prbs_warmup_s = 0.0;
  no_warmup.prbs_duration_s = 3.0;
  CalibrationOptions warmup = no_warmup;
  warmup.prbs_warmup_s = 0.3;
  const CalibrationArtifacts from_start = calibrate_platform_full(no_warmup);
  const CalibrationArtifacts skipped = calibrate_platform_full(warmup);
  constexpr std::size_t kSkip = 3;
  constexpr std::size_t kP = power::kResourceCount;
  for (std::size_t i = 0; i < kP; ++i) {
    const sysid::TraceSegment& a = from_start.excitation_segments[i];
    const sysid::TraceSegment& b = skipped.excitation_segments[i];
    // 30 recorded intervals plus the closing temperature row.
    ASSERT_EQ(a.rows(), 31u);
    ASSERT_EQ(b.rows(), 31u);
    const std::size_t w = a.width;
    for (std::size_t k = 0; k + kSkip < a.rows(); ++k) {
      for (std::size_t j = 0; j < w; ++j) {
        EXPECT_EQ(b.temps_c[k * w + j], a.temps_c[(k + kSkip) * w + j])
            << "segment " << i << " row " << k;
      }
      // The closing row repeats the last interval's powers; skip it.
      if (k + kSkip + 1 == a.rows()) continue;
      for (std::size_t j = 0; j < kP; ++j) {
        EXPECT_EQ(b.powers_w[k * kP + j], a.powers_w[(k + kSkip) * kP + j])
            << "segment " << i << " row " << k;
      }
    }
  }
}

TEST(Calibration, FailingFurnaceSetpointRaisesTheFirstSerialError) {
  // Every resource's furnace stage runs away at 400 C, each with its own
  // residual. The caller must see the big cluster's error -- the one the
  // serial workflow raised first, recorded here from it -- whatever order
  // the pipelines finish in.
  CalibrationOptions options = quick_options();
  options.furnace_temps_c = {40.0, 400.0};
  const std::string serial_first =
      "calibration: plant failed to reach a leakage-consistent equilibrium "
      "(diverged -- thermal runaway after 1 iterations, residual 650.079616 C)";
  for (int attempt = 0; attempt < 4; ++attempt) {
    try {
      calibrate_platform_full(options);
      ADD_FAILURE() << "a runaway furnace setpoint was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), serial_first) << "attempt " << attempt;
    }
  }
}

// --- Golden pins -------------------------------------------------------------
//
// Each registry platform's default calibration is pinned byte for byte:
// tests/golden/calibration_<platform>.model holds the save_model() output
// followed by the ARX residual, the regression row count and FNV-1a digests
// of the raw excitation segments and furnace samples. Any intentional change
// to the plant, sensors, RNG streams or fits must regenerate them:
//
//   DTPM_REGEN_GOLDEN=1 ./test_calibration --gtest_filter='CalibrationGolden.*'
//
// (the shared workflow in tests/golden.hpp).

struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ull;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  /// A flat row-major table of `width` columns, hashed as its row count,
  /// then each row's width and values.
  void add(const std::vector<double>& flat, std::size_t width) {
    const std::size_t rows = flat.size() / width;
    add(std::uint64_t(rows));
    for (std::size_t k = 0; k < rows; ++k) {
      add(std::uint64_t(width));
      for (std::size_t j = 0; j < width; ++j) add(flat[k * width + j]);
    }
  }
};

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

std::string golden_text(const CalibrationArtifacts& a) {
  Fnv1a excitation;
  for (const auto& seg : a.excitation_segments) {
    excitation.add(seg.temps_c, seg.width);
    excitation.add(seg.powers_w, power::kResourceCount);
  }
  Fnv1a furnace;
  for (const auto& samples : a.furnace_samples) {
    furnace.add(std::uint64_t(samples.size()));
    for (const auto& s : samples) {
      furnace.add(s.temp_c);
      furnace.add(s.total_power_w);
      furnace.add(s.vdd_v);
      furnace.add(s.frequency_hz);
    }
  }
  std::ostringstream out;
  sysid::save_model(a.model, out);
  out << std::setprecision(17) << "arx.rms_residual_c " << a.arx.rms_residual_c << "\n"
      << "arx.sample_count " << a.arx.sample_count << "\n"
      << "fnv.excitation_segments " << hex64(excitation.hash) << "\n"
      << "fnv.furnace_samples " << hex64(furnace.hash) << "\n";
  return out.str();
}

TEST(CalibrationGolden, RegistryPlatformsMatchPinnedArtifacts) {
  for (const std::string name : {"compact", "dragon", "odroid-xu-e"}) {
    const std::string path =
        std::string(DTPM_GOLDEN_DIR) + "/calibration_" + name + ".model";
    golden::expect_text_matches(
        path,
        golden_text(
            platform_calibration(PlatformRegistry::instance().get(name))),
        "test_calibration");
  }
}

}  // namespace
}  // namespace dtpm::sim
