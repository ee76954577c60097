#include "dtpm_cli.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <sstream>
#include <thread>

#include "analysis/analyzer.hpp"
#include "governors/policy_registry.hpp"
#include "lint/lint.hpp"
#include "serve/fleet.hpp"
#include "serve/fleet_io.hpp"
#include "serve/server.hpp"
#include "sim/batch.hpp"
#include "sim/calibration.hpp"
#include "sim/config_io.hpp"
#include "sim/engine.hpp"
#include "sim/platform_registry.hpp"
#include "sim/scenario_catalog.hpp"
#include "util/csv.hpp"
#include "util/names.hpp"
#include "workload/suite.hpp"

namespace dtpm::cli {

namespace {

constexpr int kOk = 0;
constexpr int kFailure = 1;
constexpr int kUsage = 2;

const char kUsageText[] =
    "dtpm -- declarative experiment driver for the DTPM reproduction\n"
    "\n"
    "usage:\n"
    "  dtpm run <config.json>  [--platform NAME] [--engine NAME] [--out DIR] "
    "[--with-model] [--smoke] [--quiet]\n"
    "      Run one experiment config; writes <out>/summary.csv and, when the\n"
    "      config records a trace, <out>/<label>_trace.csv. --platform\n"
    "      overrides the config's platform with a registered one; --engine\n"
    "      overrides the stepping engine (see `dtpm list engines`).\n"
    "  dtpm sweep <grid.json>  [-j N] [--platform NAME] [--engine NAME] "
    "[--out DIR] [--with-model] [--smoke] [--quiet]\n"
    "      Expand a sweep grid (flat benchmark axes or a scenario-catalog\n"
    "      selection) and run it on the parallel BatchRunner. --smoke caps\n"
    "      warm-up/simulated time and disables traces for CI-sized runs.\n"
    "  dtpm analyze [--platform NAME] [--ambient-sweep LO:HI:STEP] "
    "[--out DIR] [--quiet]\n"
    "      Coupled leakage-temperature stability analysis: solve the\n"
    "      equilibrium at every (OPP, cooling, ambient) operating point,\n"
    "      classify runaway stability, and derive the safe operating\n"
    "      envelope. Prints a summary and writes one\n"
    "      <out>/analysis_<platform>.json per platform (all registered\n"
    "      platforms unless --platform narrows it).\n"
    "  dtpm fleet <spec.json>  [-j N] [--out DIR] [--smoke] [--quiet]\n"
    "      One-shot fleet run: sample device profiles from the spec's\n"
    "      distributions (platform x ambient x background x scenario x\n"
    "      seed), run them in waves on the base config's engine (the\n"
    "      propagator in examples/configs/fleet_smoke.json), and write the\n"
    "      memory-flat streaming aggregate to <out>/fleet_aggregate.json.\n"
    "  dtpm serve [--socket PATH] [-j N] [--executors N] [--queue N] "
    "[--smoke] [--quiet]\n"
    "      Persistent fleet-simulation service: NDJSON requests (submit /\n"
    "      status / cancel / shutdown) from stdin -- or a Unix socket with\n"
    "      --socket -- with streaming replies. Calibrations and compiled\n"
    "      floorplans stay warm across jobs; -j sets the worker width\n"
    "      inside each fleet job; --smoke caps every submitted job for CI.\n"
    "      SIGINT/SIGTERM cancels queued jobs and ships partial aggregates.\n"
    "  dtpm lint [<file.json>...] [--platforms] [--deep] [--quiet]\n"
    "      Statically analyze configs, platform files, sweep grids, and\n"
    "      fleet specs without running anything: all diagnostics in one\n"
    "      pass, each with\n"
    "      a stable code and an exact $.path location. --platforms also\n"
    "      lints every registered platform; --deep adds the\n"
    "      equilibrium/stability pre-check. Exits non-zero only on errors.\n"
    "  dtpm list <policies|governors|scenarios|platforms|benchmarks|engines>"
    " [--long]\n"
    "      List registered names, one per line (--long adds descriptions).\n"
    "\n"
    "Each platform's identified model is calibrated on demand when a config\n"
    "needs it (the 'dtpm' policy or observe_predictions) and cached for the\n"
    "process; --with-model forces it for custom policies that read\n"
    "PolicyContext::model.\n";

struct Options {
  std::string file;
  std::string out_dir = "dtpm-out";
  std::string platform;  // empty = whatever the config selects
  std::string engine;    // empty = whatever the config selects
  bool with_model = false;
  bool quiet = false;
  bool smoke = false;
  unsigned workers = 0;  // 0 = hardware concurrency
};

/// Parses the value of a count flag (-j, --executors, --queue): a
/// non-negative decimal integer with nothing after it, so "2x" and "1.9" are
/// usage errors rather than 2 and 1. Returns false after reporting.
bool parse_count(const std::string& flag, const std::string& value,
                 unsigned& count, std::ostream& err) {
  const char* end = value.data() + value.size();
  const auto [stop, status] = std::from_chars(value.data(), end, count);
  if (!value.empty() && status == std::errc() && stop == end) return true;
  err << "dtpm: " << flag << " expects a non-negative count, got '" << value
      << "'\n";
  return false;
}

/// Parses flags shared by run/sweep; returns false (after reporting) on a
/// malformed invocation. `allow_workers` gates -j, which only the sweep's
/// BatchRunner consumes -- accepting it on `run` would silently ignore it.
bool parse_options(const std::vector<std::string>& args, std::size_t start,
                   Options& options, bool allow_workers, std::ostream& err) {
  std::vector<std::string> positional;
  for (std::size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "-j" && !allow_workers) {
      err << "dtpm: -j is only valid for `dtpm sweep`\n";
      return false;
    }
    if (arg == "--out" || arg == "-j" || arg == "--platform" ||
        arg == "--engine") {
      if (i + 1 >= args.size()) {
        err << "dtpm: " << arg << " requires an argument\n";
        return false;
      }
      const std::string& value = args[++i];
      if (arg == "--out") {
        options.out_dir = value;
      } else if (arg == "--platform") {
        options.platform = value;
      } else if (arg == "--engine") {
        options.engine = value;
      } else if (!parse_count(arg, value, options.workers, err)) {
        return false;
      }
    } else if (arg == "--with-model") {
      options.with_model = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "dtpm: unknown option '" << arg << "'\n";
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 1) {
    err << "dtpm: expected exactly one config file, got "
        << positional.size() << "\n";
    return false;
  }
  options.file = positional.front();
  return true;
}

/// Whether the config document pinned the thermal constraint explicitly
/// ($.dtpm.t_max_c, or $.base.dtpm.t_max_c / a dtpm_grid axis for sweeps).
/// --platform must not clobber an explicit constraint: set_platform adopts
/// the platform's default t_max only when the document left it implicit.
bool document_pins_t_max(const std::string& file, bool sweep) {
  const util::JsonValue json = util::json_parse_file(file);
  const util::JsonValue* node = &json;
  if (sweep) {
    if (!json.is_object()) return false;
    if (json.find("dtpm_grid") != nullptr) return true;
    node = json.find("base");
    if (node == nullptr) return false;
  }
  if (!node->is_object()) return false;
  const util::JsonValue* dtpm = node->find("dtpm");
  return dtpm != nullptr && dtpm->is_object() &&
         dtpm->find("t_max_c") != nullptr;
}

/// Applies the --platform override to one expanded config, keeping an
/// explicitly pinned t_max.
void override_platform(sim::ExperimentConfig& config,
                       const std::string& platform, bool t_max_pinned) {
  const double pinned_t_max = config.dtpm.t_max_c;
  sim::set_platform(config, platform);
  if (t_max_pinned) config.dtpm.t_max_c = pinned_t_max;
}

std::string sanitize_label(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// The summary row schema shared by `run` and `sweep`.
const char kSummaryHeader[] =
    "benchmark,policy,seed,platform,completed,execution_time_s,"
    "avg_platform_power_w,avg_soc_power_w,max_temp_c,avg_temp_c,"
    "violation_time_s,control_steps,engine,error";

void append_summary_row(std::ostream& out, const sim::ExperimentConfig& config,
                        const sim::RunResult& result,
                        const std::string& error) {
  out << std::setprecision(10) << config.benchmark << ','
      << config.policy_name << ',' << config.seed << ','
      << sim::resolved_platform_name(config) << ','
      << (result.completed ? 1 : 0) << ',' << result.execution_time_s << ','
      << result.avg_platform_power_w << ',' << result.avg_soc_power_w << ','
      << result.max_temp_stats.max() << ',' << result.max_temp_stats.mean()
      << ',' << result.violation_time_s << ',' << result.control_steps << ','
      << sim::to_string(config.engine) << ',' << error << '\n';
}

void print_result_line(std::ostream& out, const sim::ExperimentConfig& config,
                       const sim::RunResult& result) {
  std::ostringstream line;
  line << std::fixed << std::setprecision(2) << config.benchmark << " ["
       << config.policy_name << ", seed " << config.seed
       << ", " << sim::resolved_platform_name(config)
       << "]: exec " << result.execution_time_s << " s, max T "
       << result.max_temp_stats.max() << " C, avg "
       << result.avg_platform_power_w << " W"
       << (result.completed ? "" : "  (did not complete)");
  out << line.str() << '\n';
}

std::ofstream open_or_throw(const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path.string() + " for writing");
  }
  return out;
}

int run_command(const Options& options, std::ostream& out,
                std::ostream& /*err*/) {
  sim::ExperimentConfig config =
      sim::load_experiment_config(options.file);
  if (!options.platform.empty()) {
    override_platform(config, options.platform,
                      document_pins_t_max(options.file, /*sweep=*/false));
  }
  if (!options.engine.empty()) {
    config.engine = sim::parse_engine(options.engine);
  }
  if (options.smoke) sim::apply_smoke_caps(config);

  const sysid::IdentifiedPlatformModel* model = nullptr;
  if (options.with_model || sim::needs_identified_model(config)) {
    if (!options.quiet) {
      out << "calibrating platform model ("
          << sim::resolved_platform_name(config) << ")...\n";
    }
    model = &sim::platform_calibration(sim::resolved_platform(config)).model;
  }

  const sim::RunResult result = sim::run_experiment(config, model);

  std::filesystem::create_directories(options.out_dir);
  const std::string label = sanitize_label(config.benchmark) + "_" +
                            sanitize_label(config.policy_name);
  if (result.trace.has_value()) {
    const std::filesystem::path trace_path =
        std::filesystem::path(options.out_dir) / (label + "_trace.csv");
    result.trace->write_csv(trace_path.string(), util::kRoundTripPrecision);
    if (!options.quiet) out << "trace:   " << trace_path.string() << '\n';
  }
  const std::filesystem::path summary_path =
      std::filesystem::path(options.out_dir) / "summary.csv";
  {
    std::ofstream summary = open_or_throw(summary_path);
    summary << kSummaryHeader << '\n';
    append_summary_row(summary, config, result, "");
  }
  if (!options.quiet) {
    out << "summary: " << summary_path.string() << '\n';
    print_result_line(out, config, result);
  }
  return kOk;
}

int sweep_command(const Options& options, std::ostream& out,
                  std::ostream& err) {
  const sim::SweepSpec spec = sim::load_sweep_spec(options.file);
  std::vector<sim::ExperimentConfig> configs = spec.expand();
  if (!options.platform.empty()) {
    const bool t_max_pinned =
        document_pins_t_max(options.file, /*sweep=*/true);
    for (sim::ExperimentConfig& config : configs) {
      override_platform(config, options.platform, t_max_pinned);
    }
  }
  if (!options.engine.empty()) {
    const sim::Engine engine = sim::parse_engine(options.engine);
    for (sim::ExperimentConfig& config : configs) config.engine = engine;
  }
  if (options.smoke) {
    for (sim::ExperimentConfig& config : configs) {
      sim::apply_smoke_caps(config);
    }
  }
  if (configs.empty()) {
    err << "dtpm: the sweep expanded to zero configs\n";
    return kFailure;
  }

  // Calibrate once per distinct platform that needs a model; every run on
  // that platform shares the cached identified model.
  std::vector<std::string> announced;
  auto model_for = [&](const sim::ExperimentConfig& config)
      -> const sysid::IdentifiedPlatformModel* {
    if (!options.with_model && !sim::needs_identified_model(config)) {
      return nullptr;
    }
    const std::string name = sim::resolved_platform_name(config);
    if (!options.quiet &&
        std::find(announced.begin(), announced.end(), name) ==
            announced.end()) {
      announced.push_back(name);
      out << "calibrating platform model (" << name << ")...\n";
    }
    return &sim::platform_calibration(sim::resolved_platform(config)).model;
  };

  std::vector<sim::BatchJob> jobs;
  jobs.reserve(configs.size());
  for (const sim::ExperimentConfig& config : configs) {
    jobs.push_back({config, model_for(config)});
  }

  const sim::BatchRunner runner(options.workers);
  if (!options.quiet) {
    out << "running " << configs.size() << " configs on "
        << runner.worker_count() << " workers"
        << (options.smoke ? " (smoke mode)" : "") << "...\n";
  }
  const sim::BatchOutcome outcome = runner.run_collecting(jobs);

  std::filesystem::create_directories(options.out_dir);
  const std::filesystem::path summary_path =
      std::filesystem::path(options.out_dir) / "summary.csv";
  std::ofstream summary = open_or_throw(summary_path);
  // Provenance comments ahead of the header: an archived sweep records how
  // wide it actually ran (the pool clamps to the hardware) and whether an
  // --engine override forced every row onto one stepping engine, so its
  // numbers can't be misread on a differently sized host.
  summary << "# engine: "
          << (options.engine.empty() ? "per-config" : options.engine) << '\n'
          << "# workers: requested " << runner.worker_count()
          << ", effective " << runner.effective_worker_count()
          << " (host cpus "
          << std::max(1u, std::thread::hardware_concurrency()) << ")\n";
  summary << kSummaryHeader << '\n';
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::string error;
    if (outcome.errors[i]) {
      try {
        std::rethrow_exception(outcome.errors[i]);
      } catch (const std::exception& e) {
        error = e.what();
        // Commas would shift the CSV row; the message stays readable.
        std::replace(error.begin(), error.end(), ',', ';');
      }
      err << "dtpm: run " << i << " (" << configs[i].benchmark << ", "
          << configs[i].policy_name << ") failed: " << error
          << '\n';
    } else if (!options.quiet) {
      print_result_line(out, configs[i], outcome.results[i]);
    }
    append_summary_row(summary, configs[i], outcome.results[i], error);

    if (!outcome.errors[i] && outcome.results[i].trace.has_value()) {
      std::ostringstream name;
      name << "trace_" << std::setw(3) << std::setfill('0') << i << '_'
           << sanitize_label(configs[i].benchmark) << '_'
           << sanitize_label(configs[i].policy_name) << ".csv";
      outcome.results[i].trace->write_csv(
          (std::filesystem::path(options.out_dir) / name.str()).string(),
          util::kRoundTripPrecision);
    }
  }
  if (!options.quiet) {
    out << "summary: " << summary_path.string() << " (" << configs.size()
        << " rows, " << outcome.failure_count << " failed)\n";
  }
  return outcome.all_succeeded() ? kOk : kFailure;
}

/// Parses an `--ambient-sweep LO:HI:STEP` spec into an inclusive list of
/// ambient temperatures.
bool parse_ambient_sweep(const std::string& spec, std::vector<double>& out,
                         std::ostream& err) {
  double lo = 0.0, hi = 0.0, step = 0.0;
  char c1 = 0, c2 = 0;
  std::istringstream in(spec);
  if (!(in >> lo >> c1 >> hi >> c2 >> step) || c1 != ':' || c2 != ':' ||
      !in.eof()) {
    err << "dtpm: --ambient-sweep expects LO:HI:STEP, got '" << spec << "'\n";
    return false;
  }
  if (step <= 0.0 || hi < lo) {
    err << "dtpm: --ambient-sweep needs STEP > 0 and HI >= LO\n";
    return false;
  }
  out.clear();
  for (double a = lo; a <= hi + 1e-9; a += step) out.push_back(a);
  return true;
}

/// One fixed-precision detail line per OPP (the golden analysis listing pins
/// these, so the format must stay deterministic).
void print_point_line(std::ostream& out,
                      const analysis::OperatingPointAnalysis& p) {
  std::ostringstream line;
  line << std::fixed << "    opp " << std::setw(2) << p.opp_index << "  "
       << std::setw(4) << std::llround(p.frequency_hz / 1e6) << " MHz  "
       << std::setprecision(3) << p.voltage_v << " V  ";
  if (p.diverged) {
    line << "DIVERGED (thermal runaway)";
  } else if (!p.converged) {
    line << "no equilibrium after " << p.iterations << " iterations";
  } else {
    line << std::setprecision(2) << "T*core " << std::setw(6)
         << p.max_core_temp_c << " C  P " << std::setw(5) << p.total_power_w
         << " W  " << std::setprecision(3) << "gain " << p.loop_gain
         << "  margin " << p.stability_margin
         << (p.stable ? "  stable" : "  UNSTABLE");
  }
  out << line.str() << '\n';
}

int analyze_command(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  std::string out_dir = "dtpm-out";
  std::string platform;
  bool quiet = false;
  analysis::AnalysisOptions analysis_options;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--out" || arg == "--platform" || arg == "--ambient-sweep") {
      if (i + 1 >= args.size()) {
        err << "dtpm: " << arg << " requires an argument\n";
        return kUsage;
      }
      const std::string& value = args[++i];
      if (arg == "--out") {
        out_dir = value;
      } else if (arg == "--platform") {
        platform = value;
      } else if (!parse_ambient_sweep(value, analysis_options.ambients_c,
                                      err)) {
        return kUsage;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      err << "dtpm: analyze does not take '" << arg << "'\n";
      return kUsage;
    }
  }

  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  const std::vector<std::string> names =
      platform.empty() ? registry.names()
                       : std::vector<std::string>{platform};

  std::filesystem::create_directories(out_dir);
  for (const std::string& name : names) {
    const sim::PlatformPtr descriptor = registry.get(name);  // throws: unknown
    const analysis::PlatformAnalysis analysis =
        analysis::analyze_platform(*descriptor, analysis_options);

    const std::filesystem::path json_path =
        std::filesystem::path(out_dir) /
        ("analysis_" + sanitize_label(name) + ".json");
    util::json_write_file(json_path.string(), analysis::to_json(analysis));

    if (quiet) continue;
    std::ostringstream head;
    head << std::fixed << std::setprecision(1) << "== " << name << " (t_max "
         << analysis.t_max_c << " C, runaway abort "
         << analysis.runaway_abort_temp_c << " C) ==";
    out << head.str() << '\n';

    // Envelope summary: one line per ambient, derived at best cooling.
    const std::string best_cooling =
        analysis.ambients.empty() || analysis.ambients.front().cooling.empty()
            ? "?"
            : analysis.ambients.front().cooling.back().label;
    out << "  safe envelope (cooling: " << best_cooling << "):\n";
    for (const analysis::EnvelopePoint& point : analysis.envelope) {
      std::ostringstream line;
      line << std::fixed << std::setprecision(1) << "    ambient "
           << std::setw(5) << point.ambient_c << " C -> ";
      if (point.max_safe_opp_index < 0) {
        line << "no safe OPP";
      } else {
        line << "max OPP " << std::setw(2) << point.max_safe_opp_index << " ("
             << std::llround(point.max_safe_frequency_hz / 1e6) << " MHz)";
      }
      line << "  limit: " << point.limit;
      out << line.str() << '\n';
    }

    // Per-OPP detail at every ambient's best cooling state.
    for (const analysis::AmbientAnalysis& ambient : analysis.ambients) {
      if (ambient.cooling.empty()) continue;
      const analysis::CoolingStateAnalysis& cooling = ambient.cooling.back();
      std::ostringstream label;
      label << std::fixed << std::setprecision(1) << "  detail @ ambient "
            << ambient.ambient_c << " C, " << cooling.label << " cooling:";
      out << label.str() << '\n';
      for (const analysis::OperatingPointAnalysis& p : cooling.points) {
        print_point_line(out, p);
      }
    }
    out << "  json: " << json_path.string() << '\n';
  }
  return kOk;
}

int lint_command(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  std::vector<std::string> files;
  bool platforms = false;
  bool quiet = false;
  lint::LintOptions lint_options;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--platforms") {
      platforms = true;
    } else if (arg == "--deep") {
      lint_options.deep = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "dtpm: lint does not take '" << arg << "'\n";
      return kUsage;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() && !platforms) {
    err << "dtpm: lint needs config files and/or --platforms\n";
    return kUsage;
  }

  // One collecting pass per artifact; every diagnostic prints as
  //   <artifact>: $.path: severity CODE: message
  // so a line is self-contained in CI logs and editor jump-lists alike.
  std::size_t artifacts = 0, errors = 0, warnings = 0;
  auto report = [&](const std::string& label, util::CollectingSink& sink) {
    ++artifacts;
    errors += sink.error_count();
    warnings += sink.warning_count();
    for (const util::Diagnostic& diagnostic : sink.diagnostics()) {
      out << label << ": " << util::format_diagnostic(diagnostic) << '\n';
    }
  };

  for (const std::string& file : files) {
    util::CollectingSink sink;
    lint::lint_file(file, sink, lint_options);
    report(file, sink);
  }
  if (platforms) {
    const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
    for (const std::string& name : registry.names()) {
      util::CollectingSink sink;
      lint::lint_platform(*registry.get(name), "$", sink, lint_options);
      report("platform:" + name, sink);
    }
  }

  if (!quiet) {
    out << artifacts << " artifact(s) checked: " << errors << " error(s), "
        << warnings << " warning(s)\n";
  }
  return errors == 0 ? kOk : kFailure;
}

int fleet_command(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  std::string file;
  std::string out_dir = "dtpm-out";
  unsigned workers = 0;
  bool smoke = false;
  bool quiet = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--out" || arg == "-j") {
      if (i + 1 >= args.size()) {
        err << "dtpm: " << arg << " requires an argument\n";
        return kUsage;
      }
      const std::string& value = args[++i];
      if (arg == "--out") {
        out_dir = value;
      } else if (!parse_count(arg, value, workers, err)) {
        return kUsage;
      }
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "dtpm: fleet does not take '" << arg << "'\n";
      return kUsage;
    } else if (file.empty()) {
      file = arg;
    } else {
      err << "dtpm: fleet takes one spec file\n";
      return kUsage;
    }
  }
  if (file.empty()) {
    err << "dtpm: fleet needs a spec file\n";
    return kUsage;
  }

  // Lint before running: a fleet is too big to discover a bad distribution
  // three waves in. Errors abort; warnings and notes print and proceed.
  {
    util::CollectingSink sink;
    lint::lint_file(file, sink);
    for (const util::Diagnostic& diagnostic : sink.diagnostics()) {
      (diagnostic.severity == util::Severity::kError ? err : out)
          << file << ": " << util::format_diagnostic(diagnostic) << '\n';
    }
    if (sink.has_errors()) return kFailure;
  }

  serve::FleetSpec spec = serve::load_fleet_spec(file);
  if (smoke) serve::apply_smoke_caps(spec);

  serve::FleetRunOptions run_options;
  run_options.workers = workers;
  std::uint64_t waves = 0;
  if (!quiet) {
    run_options.on_wave = [&](const serve::FleetProgress& progress) {
      ++waves;
      if (waves % 16 == 0 || progress.done == progress.total) {
        out << "fleet: " << progress.done << "/" << progress.total
            << " devices\n";
      }
    };
  }
  const serve::FleetRunResult result = serve::run_fleet(spec, run_options);

  std::filesystem::create_directories(out_dir);
  const std::filesystem::path json_path =
      std::filesystem::path(out_dir) / "fleet_aggregate.json";
  util::json_write_file(json_path.string(), result.aggregate.to_json());
  if (!quiet) {
    out << "aggregate: " << json_path.string() << " (" << result.devices_run
        << " devices, " << result.aggregate.failed() << " failed)\n";
  }
  return result.aggregate.failed() == 0 ? kOk : kFailure;
}

/// Set by the serve command's SIGINT/SIGTERM handler; polled by the server.
std::atomic<bool> g_serve_stop{false};

extern "C" void serve_signal_handler(int) { g_serve_stop.store(true); }

int serve_command(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  std::string socket_path;
  serve::ServeOptions options;
  bool quiet = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--socket" || arg == "-j" || arg == "--executors" ||
        arg == "--queue") {
      if (i + 1 >= args.size()) {
        err << "dtpm: " << arg << " requires an argument\n";
        return kUsage;
      }
      const std::string& value = args[++i];
      if (arg == "--socket") {
        socket_path = value;
        continue;
      }
      unsigned n = 0;
      if (!parse_count(arg, value, n, err)) return kUsage;
      if (arg == "-j") {
        options.fleet_workers = n;
      } else if (arg == "--executors") {
        options.executors = std::max(1u, n);
      } else {
        options.queue_capacity = std::max(1u, n);
      }
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      err << "dtpm: serve does not take '" << arg << "'\n";
      return kUsage;
    }
  }

  // SIGINT/SIGTERM flip the stop flag the server polls. Deliberately no
  // SA_RESTART: a getline blocked on stdin must fail with EINTR so the
  // request loop wakes up and sees the flag. SIGPIPE (client gone
  // mid-reply) must not kill the process; writes fail normally instead.
  g_serve_stop.store(false);
  options.stop_flag = &g_serve_stop;
  struct sigaction stop_action = {};
  stop_action.sa_handler = serve_signal_handler;
  sigemptyset(&stop_action.sa_mask);
  stop_action.sa_flags = 0;
  struct sigaction ignore_action = {};
  ignore_action.sa_handler = SIG_IGN;
  sigemptyset(&ignore_action.sa_mask);
  struct sigaction old_int = {}, old_term = {}, old_pipe = {};
  sigaction(SIGINT, &stop_action, &old_int);
  sigaction(SIGTERM, &stop_action, &old_term);
  sigaction(SIGPIPE, &ignore_action, &old_pipe);

  serve::ServeStatus status;
  {
    serve::Server server(options);
    if (!socket_path.empty()) {
      if (!quiet) err << "dtpm: serving on " << socket_path << "\n";
      status = server.serve_unix(socket_path);
    } else {
      if (!quiet) err << "dtpm: serving on stdin (NDJSON requests)\n";
      status = server.serve(std::cin, out);
    }
  }

  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);
  sigaction(SIGPIPE, &old_pipe, nullptr);
  if (!quiet) {
    err << "dtpm: serve "
        << (status == serve::ServeStatus::kStopped ? "stopped" : "drained")
        << "\n";
  }
  return kOk;
}

int list_command(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  std::string category;
  bool long_format = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--long") {
      long_format = true;
    } else if (category.empty()) {
      category = args[i];
    } else {
      err << "dtpm: list takes one category\n";
      return kUsage;
    }
  }
  if (category.empty()) {
    err << "dtpm: list requires a category: policies, governors, scenarios, "
           "platforms, benchmarks, engines\n";
    return kUsage;
  }

  auto print_plain = [&](const std::vector<std::string>& names) {
    for (const std::string& name : names) out << name << '\n';
    return kOk;
  };
  // A registry's names, each followed by its description under --long.
  auto print_described = [&](const auto& registry) {
    for (const std::string& name : registry.names()) {
      out << name;
      if (long_format) out << "  -  " << registry.description(name);
      out << '\n';
    }
    return kOk;
  };

  if (category == "policies") {
    return print_described(governors::PolicyRegistry::instance());
  }
  if (category == "governors") {
    return print_described(governors::GovernorRegistry::instance());
  }
  if (category == "scenarios") {
    return print_plain(sim::ScenarioCatalog::standard().family_names());
  }
  if (category == "platforms") {
    return print_described(sim::PlatformRegistry::instance());
  }
  if (category == "benchmarks") {
    return print_plain(workload::all_benchmark_names());
  }
  if (category == "engines") {
    // Enumerator order (reference first), not sorted: the list doubles as
    // a ranking from the oracle to the fastest.
    const char* const descriptions[] = {
        "per-substep RK4 integrator; the propagator's oracle and the "
        "golden-trace baseline",
        "exact LTI propagator; one matvec per substep; the default",
    };
    const std::vector<std::string>& names = sim::engine_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      out << names[i];
      if (long_format) out << "  -  " << descriptions[i];
      out << '\n';
    }
    return kOk;
  }
  err << "dtpm: "
      << util::unknown_name_message(
             "list category", category,
             {"policies", "governors", "scenarios", "platforms", "benchmarks",
              "engines"})
      << '\n';
  return kUsage;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help" ||
      args[0] == "-h") {
    (args.empty() ? err : out) << kUsageText;
    return args.empty() ? kUsage : kOk;
  }
  const std::string& command = args[0];
  try {
    if (command == "run" || command == "sweep") {
      Options options;
      if (!parse_options(args, 1, options, command == "sweep", err)) {
        return kUsage;
      }
      return command == "run" ? run_command(options, out, err)
                              : sweep_command(options, out, err);
    }
    if (command == "fleet") {
      return fleet_command(args, out, err);
    }
    if (command == "serve") {
      return serve_command(args, out, err);
    }
    if (command == "analyze") {
      return analyze_command(args, out, err);
    }
    if (command == "lint") {
      return lint_command(args, out, err);
    }
    if (command == "list") {
      return list_command(args, out, err);
    }
  } catch (const std::exception& e) {
    err << "dtpm: " << e.what() << '\n';
    return kFailure;
  }
  err << "dtpm: unknown command '" << command << "' (try `dtpm help`)\n";
  return kUsage;
}

}  // namespace dtpm::cli
