// The `dtpm` CLI, driven in-process through dtpm::cli::run. Includes the
// acceptance pin for the open-registry redesign: a policy defined in THIS
// test TU (not in src/) is registered at startup via PolicyRegistration and
// selected purely by a JSON config run through `dtpm run`.
#include "dtpm_cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "governors/policy_registry.hpp"
#include "sim/config_io.hpp"
#include "util/json.hpp"

#ifndef DTPM_CONFIG_DIR
#error "build must define DTPM_CONFIG_DIR (see CMakeLists.txt)"
#endif
#ifndef DTPM_GOLDEN_DIR
#error "build must define DTPM_GOLDEN_DIR (see CMakeLists.txt)"
#endif

namespace dtpm {
namespace {

// --- the out-of-library policy, registered at static-init time -------------

std::atomic<long> g_unit_trip_adjusts{0};
std::atomic<double> g_unit_trip_c{0.0};

class UnitTripPolicy final : public governors::ThermalPolicy {
 public:
  explicit UnitTripPolicy(double trip_c) { g_unit_trip_c = trip_c; }

  governors::Decision adjust(const soc::PlatformView&,
                             const governors::Decision& proposal) override {
    ++g_unit_trip_adjusts;
    governors::Decision out = proposal;
    out.fan = thermal::FanSpeed::kOff;
    return out;
  }
  std::string_view name() const override { return "unit-trip"; }
};

/// Startup self-registration: exactly the pattern user code ships.
const governors::PolicyRegistration kUnitTripRegistration{
    "unit-trip",
    [](const governors::PolicyContext& context) {
      return std::make_unique<UnitTripPolicy>(context.param("trip_c", 63.0));
    },
    "test-TU trip policy (registered outside src/)"};

// --- harness ----------------------------------------------------------------

struct CliResult {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = cli::run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_dir() {
  const std::string dir = ::testing::TempDir() + "dtpm_cli/";
  std::filesystem::create_directories(dir);
  return dir;
}

std::string write_file(const std::string& name, const std::string& content) {
  const std::string path = temp_dir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t line_count(const std::string& text) {
  std::size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

// --- list -------------------------------------------------------------------

TEST(DtpmCli, ListPoliciesIncludesBuiltinsSorted) {
  const CliResult r = run_cli({"list", "policies"});
  EXPECT_EQ(r.exit_code, 0);
  // The four builtins in sorted order; "unit-trip" (registered by this TU)
  // sorts last.
  EXPECT_EQ(r.out,
            "default+fan\ndtpm\nno-fan\nreactive\nunit-trip\n");
  const CliResult verbose = run_cli({"list", "policies", "--long"});
  EXPECT_NE(verbose.out.find("registered outside src/"), std::string::npos);
}

TEST(DtpmCli, ListCategories) {
  EXPECT_EQ(run_cli({"list", "scenarios"}).out,
            "bursty\nperiodic-square\nsawtooth-ramp\nthermal-soak\n"
            "phase-mix\ngpu-co-stress\nduty-cycle-resonance\n");
  EXPECT_EQ(run_cli({"list", "governors"}).out, "ondemand\n");
  // Platforms replaced the old preset category outright.
  EXPECT_EQ(run_cli({"list", "presets"}).exit_code, 2);
  const CliResult benchmarks = run_cli({"list", "benchmarks"});
  EXPECT_NE(benchmarks.out.find("crc32\n"), std::string::npos);
  EXPECT_NE(benchmarks.out.find("templerun\n"), std::string::npos);

  const CliResult unknown = run_cli({"list", "polices"});
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_NE(unknown.err.find("did you mean 'policies'?"), std::string::npos);
  EXPECT_EQ(run_cli({"list"}).exit_code, 2);
}

TEST(DtpmCli, ListPlatforms) {
  // Sorted registry names; the three built-ins ship pre-registered.
  EXPECT_EQ(run_cli({"list", "platforms"}).out,
            "compact\ndragon\nodroid-xu-e\n");
  const CliResult verbose = run_cli({"list", "platforms", "--long"});
  EXPECT_NE(verbose.out.find("Tegra-X1-like"), std::string::npos);
  EXPECT_NE(verbose.out.find("the paper's board"), std::string::npos);
}

TEST(DtpmCli, ListEngines) {
  // Enumerator order, not sorted: baseline first, fastest last.
  EXPECT_EQ(run_cli({"list", "engines"}).out, "reference-rk4\npropagator\n");
  const CliResult verbose = run_cli({"list", "engines", "--long"});
  EXPECT_NE(verbose.out.find("golden-trace baseline"), std::string::npos);
  EXPECT_NE(verbose.out.find("LTI propagator"), std::string::npos);
}

// --- usage ------------------------------------------------------------------

TEST(DtpmCli, UsageErrors) {
  EXPECT_EQ(run_cli({}).exit_code, 2);
  EXPECT_EQ(run_cli({"frobnicate"}).exit_code, 2);
  EXPECT_EQ(run_cli({"run"}).exit_code, 2);
  EXPECT_EQ(run_cli({"run", "a.json", "b.json"}).exit_code, 2);
  EXPECT_EQ(run_cli({"sweep", "g.json", "-j", "nope"}).exit_code, 2);
  // A count must be all digits: a trailing suffix is rejected while the
  // arguments are parsed, before any file is read or pool/server exists.
  const CliResult suffixed = run_cli({"sweep", "g.json", "-j", "2x"});
  EXPECT_EQ(suffixed.exit_code, 2);
  EXPECT_NE(suffixed.err.find("-j expects a non-negative count, got '2x'"),
            std::string::npos);
  EXPECT_EQ(run_cli({"fleet", "f.json", "-j", "1.9"}).exit_code, 2);
  EXPECT_EQ(run_cli({"serve", "--executors", "3x"}).exit_code, 2);
  EXPECT_EQ(run_cli({"run", "c.json", "--bogus"}).exit_code, 2);
  // -j only drives the sweep's BatchRunner; run must reject it rather than
  // silently ignore it.
  const CliResult j_on_run = run_cli({"run", "c.json", "-j", "2"});
  EXPECT_EQ(j_on_run.exit_code, 2);
  EXPECT_NE(j_on_run.err.find("only valid for `dtpm sweep`"),
            std::string::npos);
  EXPECT_EQ(run_cli({"help"}).exit_code, 0);
  EXPECT_NE(run_cli({"help"}).out.find("dtpm run"), std::string::npos);
}

// --- run --------------------------------------------------------------------

TEST(DtpmCli, RunWritesTraceAndSummary) {
  const std::string config = write_file("run_nofan.json", R"({
    // short closed-loop run for the CLI test
    "benchmark": "crc32",
    "policy": "no-fan",
    "warmup_s": 1.0,
    "max_sim_time_s": 6.0,
    "seed": 3
  })");
  const std::string out_dir = temp_dir() + "run-out";
  const CliResult r = run_cli({"run", config, "--out", out_dir});
  EXPECT_EQ(r.exit_code, 0) << r.err;

  const std::string summary = slurp(out_dir + "/summary.csv");
  EXPECT_NE(summary.find("benchmark,policy,seed,platform,completed"),
            std::string::npos);
  EXPECT_NE(summary.find("crc32,no-fan,3,odroid-xu-e,"), std::string::npos);
  EXPECT_EQ(line_count(summary), 2u);  // header + one row

  const std::string trace = slurp(out_dir + "/crc32_no-fan_trace.csv");
  EXPECT_NE(trace.find("time_s"), std::string::npos);
  EXPECT_GE(line_count(trace), 40u);  // ~5 s of 100 ms intervals
}

TEST(DtpmCli, RunReportsConfigErrorsWithPath) {
  const std::string config =
      write_file("bad_policy.json", R"({"policy": "dtmp"})");
  const CliResult r = run_cli({"run", config, "--out", temp_dir() + "x"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("$.policy: unknown policy 'dtmp', did you mean "
                       "'dtpm'?"),
            std::string::npos);
  EXPECT_EQ(run_cli({"run", temp_dir() + "missing.json"}).exit_code, 1);
}

/// THE acceptance pin: a policy living in this test TU, registered at
/// startup, selected purely via a JSON config through `dtpm run`.
TEST(DtpmCli, CustomPolicyFromTestTuRunsViaJsonConfig) {
  g_unit_trip_adjusts = 0;
  const std::string config = write_file("unit_trip.json", R"({
    "benchmark": "crc32",
    "policy": "unit-trip",
    "policy_params": {"trip_c": 61.0},
    "warmup_s": 1.0,
    "max_sim_time_s": 5.0,
    "record_trace": false
  })");
  const std::string out_dir = temp_dir() + "unit-trip-out";
  const CliResult r = run_cli({"run", config, "--out", out_dir, "--quiet"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_DOUBLE_EQ(g_unit_trip_c, 61.0);     // policy_params reached it
  EXPECT_GE(g_unit_trip_adjusts.load(), 40); // and it ran closed-loop
  EXPECT_NE(slurp(out_dir + "/summary.csv").find("crc32,unit-trip,"),
            std::string::npos);
}

TEST(DtpmCli, RunOnSelectedPlatform) {
  const std::string config = write_file("run_dragon.json", R"({
    "benchmark": "crc32",
    "policy": "no-fan",
    "platform": "dragon",
    "warmup_s": 1.0,
    "max_sim_time_s": 5.0,
    "record_trace": false
  })");
  const std::string out_dir = temp_dir() + "dragon-out";
  const CliResult r = run_cli({"run", config, "--out", out_dir, "--quiet"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(slurp(out_dir + "/summary.csv").find("crc32,no-fan,1,dragon,"),
            std::string::npos);
}

TEST(DtpmCli, PlatformFlagOverridesConfig) {
  const std::string config = write_file("run_flag_platform.json", R"({
    "benchmark": "crc32",
    "policy": "no-fan",
    "warmup_s": 1.0,
    "max_sim_time_s": 5.0,
    "record_trace": false
  })");
  const std::string out_dir = temp_dir() + "flag-platform-out";
  const CliResult r = run_cli(
      {"run", config, "--platform", "compact", "--out", out_dir, "--quiet"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(slurp(out_dir + "/summary.csv").find("crc32,no-fan,1,compact,"),
            std::string::npos);

  // Unknown names fail with the sorted list + suggestion, like every other
  // registry lookup.
  const CliResult bad =
      run_cli({"run", config, "--platform", "drago", "--quiet"});
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.err.find("did you mean 'dragon'?"), std::string::npos);
}

TEST(DtpmCli, PlatformFlagKeepsExplicitlyPinnedTmax) {
  // The document pins t_max_c = 30 -- far below every temperature the run
  // will see -- so if --platform kept it, violation_time covers the whole
  // run; if the flag clobbered it with compact's 58 C default, violation
  // time would be zero.
  const std::string config = write_file("pinned_tmax.json", R"({
    "benchmark": "crc32",
    "policy": "no-fan",
    "dtpm": {"t_max_c": 30.0},
    "warmup_s": 1.0,
    "max_sim_time_s": 5.0,
    "record_trace": false
  })");
  const std::string out_dir = temp_dir() + "pinned-tmax-out";
  const CliResult r = run_cli(
      {"run", config, "--platform", "compact", "--out", out_dir, "--quiet"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::string summary = slurp(out_dir + "/summary.csv");
  // Parse the data row: violation_time_s is the 11th column (index 10).
  const std::size_t row_start = summary.find('\n') + 1;
  std::istringstream row(summary.substr(row_start));
  std::string field;
  std::vector<std::string> fields;
  while (std::getline(row, field, ',')) fields.push_back(field);
  ASSERT_GT(fields.size(), 10u);
  EXPECT_EQ(fields[3], "compact");
  EXPECT_GT(std::stod(fields[10]), 1.0) << summary;
}

TEST(DtpmCli, EngineFromConfigAndFlagReachesTheSummary) {
  // The config pins "engine": "propagator"; the summary's engine column
  // must record it, and --engine must override it the way --platform
  // overrides the plant.
  const std::string config = write_file("run_engine.json", R"({
    "benchmark": "crc32",
    "policy": "no-fan",
    "engine": "propagator",
    "warmup_s": 1.0,
    "max_sim_time_s": 5.0,
    "record_trace": false
  })");
  const std::string out_dir = temp_dir() + "engine-out";
  const CliResult r = run_cli({"run", config, "--out", out_dir, "--quiet"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(slurp(out_dir + "/summary.csv").find(",propagator,"),
            std::string::npos);

  const CliResult overridden = run_cli({"run", config, "--engine",
                                        "reference-rk4", "--out", out_dir,
                                        "--quiet"});
  EXPECT_EQ(overridden.exit_code, 0) << overridden.err;
  EXPECT_NE(slurp(out_dir + "/summary.csv").find(",reference-rk4,"),
            std::string::npos);

  // Unknown names fail with the sorted list + suggestion.
  const CliResult bad =
      run_cli({"run", config, "--engine", "propogator", "--quiet"});
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.err.find("did you mean 'propagator'?"), std::string::npos);
}

TEST(DtpmCli, SweepEngineFlagAppliesToEveryRow) {
  const std::string grid = write_file("engine_grid.json", R"({
    "base": {"benchmark": "crc32", "policy": "no-fan",
             "warmup_s": 1.0, "max_sim_time_s": 4.0, "record_trace": false},
    "seeds": [1, 2]
  })");
  const std::string out_dir = temp_dir() + "engine-sweep-out";
  const CliResult r = run_cli({"sweep", grid, "--engine", "propagator",
                               "--smoke", "--out", out_dir, "--quiet"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::string summary = slurp(out_dir + "/summary.csv");
  EXPECT_EQ(line_count(summary), 5u);  // 2 comments + header + 2 seeds
  // Provenance comments precede the header: the engine override and the
  // requested-vs-effective worker width are part of the artifact.
  EXPECT_EQ(summary.rfind("# engine: propagator\n", 0), 0u) << summary;
  EXPECT_NE(summary.find("# workers: requested "), std::string::npos);
  EXPECT_NE(summary.find(", effective "), std::string::npos);
  // Both data rows stepped on the propagator.
  std::size_t propagator_rows = 0, pos = 0;
  while ((pos = summary.find(",propagator,", pos)) != std::string::npos) {
    ++propagator_rows;
    pos += 1;
  }
  EXPECT_EQ(propagator_rows, 2u);
}

TEST(DtpmCli, RunReportsUnknownPlatformInConfigWithPath) {
  const std::string config =
      write_file("bad_platform.json", R"({"platform": "odroid-xue"})");
  const CliResult r = run_cli({"run", config, "--out", temp_dir() + "y"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("$.platform: unknown platform 'odroid-xue', did you "
                       "mean 'odroid-xu-e'?"),
            std::string::npos);
}

/// The calibrated-DTPM path end to end: the quickstart config runs crc32
/// under the dtpm policy, so `dtpm run` calibrates the platform model first.
/// Its summary is pinned against tests/golden/quickstart_summary.csv.
TEST(DtpmCli, QuickstartSummaryMatchesGolden) {
  const std::string out_dir = temp_dir() + "quickstart-out";
  const CliResult r =
      run_cli({"run", std::string(DTPM_CONFIG_DIR) + "/quickstart.json",
               "--engine", "reference-rk4", "--out", out_dir, "--quiet"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  golden::expect_text_matches(
      std::string(DTPM_GOLDEN_DIR) + "/quickstart_summary.csv",
      slurp(out_dir + "/summary.csv"), "test_dtpm_cli");
}

/// The columns of `csv` whose header names start with `prefix`, as CSV
/// text: each kept cell is copied byte for byte.
std::string columns_with_prefix(const std::string& csv,
                                const std::string& prefix) {
  std::istringstream lines(csv);
  std::string line, out;
  std::vector<std::size_t> keep;
  bool header = true;
  while (std::getline(lines, line)) {
    std::istringstream cells(line);
    std::string cell, row;
    for (std::size_t c = 0; std::getline(cells, cell, ','); ++c) {
      if (header && cell.rfind(prefix, 0) == 0) keep.push_back(c);
      if (std::find(keep.begin(), keep.end(), c) == keep.end()) continue;
      row += (row.empty() ? "" : ",") + cell;
    }
    out += row + '\n';
    header = false;
  }
  return out;
}

/// The quickstart at a 55 C cap, where the calibrated model matters: at the
/// config's 63 C the DTPM governor never caps, so that run's summary equals
/// no-fan's. Here DTPM throttles (73.12 s, 54.5 C peak, against 70.01 s and
/// 58 C uncapped), so the summary and the trace's pred_* columns -- the
/// calibrated model's predictions -- are pinned against
/// tests/golden/quickstart_55c.csv.
TEST(DtpmCli, QuickstartAt55CMatchesGolden) {
  std::string config = slurp(std::string(DTPM_CONFIG_DIR) + "/quickstart.json");
  const std::string cap = "\"t_max_c\": 63.0";
  const std::size_t at = config.find(cap);
  ASSERT_NE(at, std::string::npos) << "quickstart.json no longer sets " << cap;
  config.replace(at, cap.size(), "\"t_max_c\": 55.0");
  const std::string out_dir = temp_dir() + "quickstart-55c-out";
  const CliResult r =
      run_cli({"run", write_file("quickstart_55c.json", config), "--engine",
               "reference-rk4", "--out", out_dir, "--quiet"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  golden::expect_text_matches(
      std::string(DTPM_GOLDEN_DIR) + "/quickstart_55c.csv",
      slurp(out_dir + "/summary.csv") +
          columns_with_prefix(slurp(out_dir + "/crc32_dtpm_trace.csv"),
                              "pred_"),
      "test_dtpm_cli");
}

// --- sweep ------------------------------------------------------------------

TEST(DtpmCli, SweepSmokeWritesSummaryRows) {
  const std::string grid = write_file("grid.json", R"({
    "base": {"warmup_s": 1.0, "max_sim_time_s": 5.0, "record_trace": false},
    "benchmarks": ["crc32"],
    "policies": ["no-fan", "reactive"],
    "seeds": [1, 2]
  })");
  const std::string out_dir = temp_dir() + "sweep-out";
  const CliResult r =
      run_cli({"sweep", grid, "--smoke", "-j", "2", "--out", out_dir});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::string summary = slurp(out_dir + "/summary.csv");
  EXPECT_EQ(line_count(summary), 7u);  // 2 comments + header + 2x2 rows
  EXPECT_NE(summary.find("crc32,reactive,2,"), std::string::npos);
  // No --engine override: the comment records that rows kept their own.
  EXPECT_EQ(summary.rfind("# engine: per-config\n", 0), 0u) << summary;
}

TEST(DtpmCli, SweepPlatformAxis) {
  const std::string grid = write_file("platform_grid.json", R"({
    "base": {"benchmark": "crc32", "policy": "no-fan",
             "warmup_s": 1.0, "max_sim_time_s": 4.0, "record_trace": false},
    "platforms": ["odroid-xu-e", "dragon", "compact"]
  })");
  const std::string out_dir = temp_dir() + "platform-sweep-out";
  const CliResult r = run_cli({"sweep", grid, "--smoke", "--out", out_dir});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::string summary = slurp(out_dir + "/summary.csv");
  EXPECT_EQ(line_count(summary), 6u);  // 2 comments + header + 3 platforms
  EXPECT_NE(summary.find("crc32,no-fan,1,odroid-xu-e,"), std::string::npos);
  EXPECT_NE(summary.find("crc32,no-fan,1,dragon,"), std::string::npos);
  EXPECT_NE(summary.find("crc32,no-fan,1,compact,"), std::string::npos);
}

TEST(DtpmCli, SweepScenarioSelection) {
  const std::string grid = write_file("scenario_grid.json", R"({
    "base": {"warmup_s": 1.0, "max_sim_time_s": 4.0, "record_trace": false},
    "policies": ["no-fan"],
    "scenarios": {"families": ["bursty"], "seeds": [1, 2]}
  })");
  const std::string out_dir = temp_dir() + "scenario-out";
  const CliResult r = run_cli({"sweep", grid, "--smoke", "--out", out_dir});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::string summary = slurp(out_dir + "/summary.csv");
  EXPECT_EQ(line_count(summary), 5u);  // 2 comments + header + 2 scenarios
  EXPECT_NE(summary.find("bursty#s1,no-fan,1,"), std::string::npos);
  EXPECT_NE(summary.find("bursty#s2,no-fan,2,"), std::string::npos);
}

// --- analyze ----------------------------------------------------------------

TEST(DtpmCli, AnalyzeSinglePlatformWritesJsonAndEnvelope) {
  const std::string dir = temp_dir() + "analyze";
  const CliResult r = run_cli({"analyze", "--platform", "compact",
                               "--ambient-sweep", "25:45:10", "--out", dir});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("== compact"), std::string::npos);
  EXPECT_NE(r.out.find("safe envelope (cooling: passive):"),
            std::string::npos);
  // The skin-limited phone is t-max capped at 25 C (see test_analysis.cpp).
  EXPECT_NE(r.out.find("limit: t-max"), std::string::npos);
  // Inclusive sweep: 25, 35, 45.
  EXPECT_NE(r.out.find("ambient  25.0 C"), std::string::npos);
  EXPECT_NE(r.out.find("ambient  45.0 C"), std::string::npos);
  EXPECT_EQ(r.out.find("ambient  15.0 C"), std::string::npos);

  const std::string json = slurp(dir + "/analysis_compact.json");
  const util::JsonValue doc = util::json_parse(json);
  EXPECT_EQ(doc.find("platform")->as_string(), "compact");
  EXPECT_EQ(doc.find("envelope")->as_array().size(), 3u);
}

/// The full-registry listing is pinned against
/// tests/golden/analysis_listing.txt, the file CI's cli-smoke job diffs
/// `dtpm analyze --out cli-analysis` against. Only the `json:` lines depend
/// on --out, so their directory is normalised to CI's.
TEST(DtpmCli, AnalyzeListingMatchesGolden) {
  const CliResult r = run_cli({"analyze", "--out", temp_dir() + "golden"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const std::string json_prefix = "  json: ";
  std::istringstream lines(r.out);
  std::string listing;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(json_prefix, 0) == 0) {
      const std::filesystem::path json(line.substr(json_prefix.size()));
      line = json_prefix + "cli-analysis/" + json.filename().string();
    }
    listing += line + '\n';
  }
  golden::expect_text_matches(
      std::string(DTPM_GOLDEN_DIR) + "/analysis_listing.txt", listing,
      "test_dtpm_cli");
}

TEST(DtpmCli, AnalyzeQuietStillWritesJson) {
  const std::string dir = temp_dir() + "analyze-quiet";
  const CliResult r = run_cli(
      {"analyze", "--platform", "dragon", "--quiet", "--out", dir});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(r.out.empty());
  EXPECT_NE(slurp(dir + "/analysis_dragon.json").find("\"envelope\""),
            std::string::npos);
}

TEST(DtpmCli, AnalyzeUsageAndFailureModes) {
  EXPECT_EQ(run_cli({"analyze", "--bogus"}).exit_code, 2);
  EXPECT_EQ(run_cli({"analyze", "--ambient-sweep"}).exit_code, 2);
  EXPECT_EQ(run_cli({"analyze", "--ambient-sweep", "garbage"}).exit_code, 2);
  // HI < LO and STEP <= 0 are spec errors, not empty sweeps.
  EXPECT_EQ(run_cli({"analyze", "--ambient-sweep", "45:25:10"}).exit_code, 2);
  EXPECT_EQ(run_cli({"analyze", "--ambient-sweep", "25:45:0"}).exit_code, 2);

  const CliResult unknown = run_cli(
      {"analyze", "--platform", "toaster", "--out", temp_dir() + "nope"});
  EXPECT_EQ(unknown.exit_code, 1);
  EXPECT_NE(unknown.err.find("toaster"), std::string::npos);
}

// --- the checked-in example configs stay loadable ---------------------------

TEST(DtpmCli, ExampleConfigsParseAndExpand) {
  const std::string dir = DTPM_CONFIG_DIR;
  const sim::ExperimentConfig quickstart =
      sim::load_experiment_config(dir + "/quickstart.json");
  EXPECT_EQ(quickstart.policy_name, "dtpm");

  const sim::SweepSpec comparison =
      sim::load_sweep_spec(dir + "/policy_comparison.json");
  EXPECT_GE(comparison.expand().size(), 4u);

  const sim::SweepSpec fuzz =
      sim::load_sweep_spec(dir + "/scenario_fuzz.json");
  EXPECT_TRUE(fuzz.has_scenarios);
  EXPECT_GE(fuzz.expand().size(), 4u);

  // The inline-descriptor example: a custom fanless SoC defined purely in
  // JSON, selectable without any registry entry.
  const sim::ExperimentConfig custom =
      sim::load_experiment_config(dir + "/custom_platform.json");
  ASSERT_NE(custom.platform, nullptr);
  EXPECT_EQ(custom.platform->name, "stb-quad");
  EXPECT_FALSE(custom.platform->has_fan());
  EXPECT_EQ(custom.platform->platform_load.display_w, 0.0);
  EXPECT_DOUBLE_EQ(custom.dtpm.t_max_c, 75.0);  // adopted from the platform

  // The engine example: every expanded config selects the propagator.
  const sim::SweepSpec fleet =
      sim::load_sweep_spec(dir + "/engine_throughput.json");
  EXPECT_EQ(fleet.base.engine, sim::Engine::kPropagator);
  const std::vector<sim::ExperimentConfig> expanded = fleet.expand();
  EXPECT_EQ(expanded.size(), 8u);
  for (const sim::ExperimentConfig& config : expanded) {
    EXPECT_EQ(config.engine, sim::Engine::kPropagator);
  }
}

}  // namespace
}  // namespace dtpm
