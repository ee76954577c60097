// The `dtpm lint` layer: golden-pinned corpus diagnostics, the
// throwing/collecting parse equivalence, param-schema enforcement, and the
// CLI exit-code contract.
//
// The corpus under tests/lint/ pairs each broken document with a
// `.expected` listing of every diagnostic it must produce (code, path, and
// message, in emission order). Any intentional change to a diagnostic
// regenerates the goldens:
//
//   DTPM_REGEN_GOLDEN=1 ./test_lint
//
// then commit the rewritten .expected files with the change that caused
// the drift (the shared workflow in tests/golden.hpp).
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dtpm_cli.hpp"
#include "golden.hpp"
#include "governors/policy_registry.hpp"
#include "lint/lint.hpp"
#include "sim/config_io.hpp"
#include "sim/platform_registry.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"

#ifndef DTPM_LINT_DIR
#error "build must define DTPM_LINT_DIR (see CMakeLists.txt)"
#endif
#ifndef DTPM_CONFIG_DIR
#error "build must define DTPM_CONFIG_DIR (see CMakeLists.txt)"
#endif

namespace dtpm {
namespace {

// --- a schema-declaring policy, registered from this test TU ---------------

class InertPolicy final : public governors::ThermalPolicy {
 public:
  governors::Decision adjust(const soc::PlatformView&,
                             const governors::Decision& proposal) override {
    return proposal;
  }
  std::string_view name() const override { return "lint-unit"; }
};

/// Registered with a declared one-param schema so the L4xx tests exercise
/// range checking and did-you-mean against a known spec.
const governors::PolicyRegistration kLintUnitRegistration{
    "lint-unit",
    [](const governors::PolicyContext&) {
      return std::make_unique<InertPolicy>();
    },
    "test-TU policy with a declared param schema",
    governors::ParamSchema{true, {{"gain", 0.0, 1.0, "loop gain"}}}};

// --- harness ----------------------------------------------------------------

std::string corpus_path(const std::string& name) {
  return std::string(DTPM_LINT_DIR) + "/" + name;
}

std::vector<util::Diagnostic> lint_corpus(const std::string& name,
                                          bool deep = false) {
  util::CollectingSink sink;
  lint::LintOptions options;
  options.deep = deep;
  lint::lint_file(corpus_path(name), sink, options);
  return sink.take();
}

/// The pinned rendering: one format_diagnostic line per finding plus a
/// trailing severity tally, so a golden also pins the error/warning split.
std::string render(const std::vector<util::Diagnostic>& diagnostics) {
  std::ostringstream out;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const util::Diagnostic& d : diagnostics) {
    out << util::format_diagnostic(d) << "\n";
    if (d.severity == util::Severity::kError) ++errors;
    if (d.severity == util::Severity::kWarning) ++warnings;
  }
  out << "errors=" << errors << " warnings=" << warnings << "\n";
  return out.str();
}

void expect_matches_golden(const std::string& corpus_name) {
  golden::expect_text_matches(
      corpus_path(corpus_name.substr(0, corpus_name.rfind('.')) + ".expected"),
      render(lint_corpus(corpus_name)), "test_lint");
}

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

// --- the golden corpus ------------------------------------------------------

TEST(LintCorpus, MultiError) { expect_matches_golden("multi_error.json"); }
TEST(LintCorpus, BrokenFloorplan) {
  expect_matches_golden("broken_floorplan.json");
}
TEST(LintCorpus, RunawayVsTmax) {
  expect_matches_golden("runaway_vs_tmax.json");
}
TEST(LintCorpus, BadParams) { expect_matches_golden("bad_params.json"); }
TEST(LintCorpus, EmptyAxes) { expect_matches_golden("empty_axes.json"); }
TEST(LintCorpus, TraceBlowup) { expect_matches_golden("trace_blowup.json"); }
TEST(LintCorpus, FleetBad) { expect_matches_golden("fleet_bad.json"); }
TEST(LintCorpus, FleetHot) { expect_matches_golden("fleet_hot.json"); }
/// The retired "preset" key gets no special case: the generic unknown-field
/// path (L004) rejects it like any other stray member.
TEST(LintCorpus, LegacyPreset) { expect_matches_golden("legacy_preset.json"); }
/// The retired "batched" engine name gets no alias either: it is an
/// ordinary L005 unknown-engine error listing the valid names.
TEST(LintCorpus, LegacyBatchedEngine) {
  expect_matches_golden("legacy_batched_engine.json");
}

/// The headline acceptance: one invocation over one broken file surfaces
/// every problem -- four distinct codes here -- instead of stopping at the
/// first like the throwing parser.
TEST(LintCorpus, OneInvocationCollectsEveryError) {
  const std::vector<util::Diagnostic> diagnostics =
      lint_corpus("multi_error.json");
  std::set<std::string> codes;
  std::size_t errors = 0;
  for (const util::Diagnostic& d : diagnostics) {
    codes.insert(d.code);
    if (d.severity == util::Severity::kError) ++errors;
  }
  EXPECT_GE(errors, 4u);
  EXPECT_TRUE(codes.count("L002"));  // type mismatch
  EXPECT_TRUE(codes.count("L004"));  // unknown field
  EXPECT_TRUE(codes.count("L005"));  // unknown name (x2, with suggestions)
}

TEST(LintCorpus, SuggestsNearestName) {
  const std::vector<util::Diagnostic> diagnostics =
      lint_corpus("multi_error.json");
  bool suggested = false;
  for (const util::Diagnostic& d : diagnostics) {
    if (d.message.find("did you mean 'crc32'?") != std::string::npos) {
      suggested = true;
    }
  }
  EXPECT_TRUE(suggested);
}

// --- throwing/collecting equivalence ----------------------------------------

/// The legacy API is a wrapper over the collecting machinery, so the
/// ConfigError it throws must be byte-identical to the FIRST error the
/// collecting parse reports for the same document.
TEST(LintModes, ThrowingMatchesFirstCollectedError) {
  const util::JsonValue json =
      util::json_parse_file(corpus_path("multi_error.json"));

  util::CollectingSink sink;
  (void)sim::experiment_from_json(json, "$", sink);
  ASSERT_TRUE(sink.has_errors());
  const util::Diagnostic& first = sink.diagnostics().front();
  ASSERT_EQ(util::Severity::kError, first.severity);

  try {
    (void)sim::experiment_from_json(json, "$");
    FAIL() << "throwing parse accepted a broken document";
  } catch (const sim::ConfigError& e) {
    EXPECT_EQ(first.path, e.path());
    EXPECT_EQ(first.message, e.detail());
  }
}

/// On a clean document the collecting parse reports nothing and returns the
/// same value the throwing parse produces.
TEST(LintModes, CleanDocumentCollectsNothing) {
  const util::JsonValue json = util::json_parse_file(
      std::string(DTPM_CONFIG_DIR) + "/quickstart.json");
  util::CollectingSink sink;
  const sim::ExperimentConfig collected =
      sim::experiment_from_json(json, "$", sink);
  EXPECT_EQ(0u, sink.error_count());
  const sim::ExperimentConfig thrown = sim::experiment_from_json(json, "$");
  EXPECT_EQ(util::json_write(sim::to_json(thrown)),
            util::json_write(sim::to_json(collected)));
}

// --- document kinds ---------------------------------------------------------

/// `dtpm lint` and `dtpm run` classify a document the same way: a plural
/// axis makes it a sweep for both, so neither suggests the other's members.
TEST(LintDocuments, LintAndRunAgreeOnTheDocumentKind) {
  const std::string path = ::testing::TempDir() + "policies_axis.json";
  std::ofstream(path) << R"({"benchmark": "crc32", "policies": ["dtpm"]})";

  util::CollectingSink sink;
  lint::lint_file(path, sink);
  const std::vector<util::Diagnostic> found = sink.take();
  ASSERT_EQ(1u, found.size());
  EXPECT_EQ("$.benchmark: error L004: unknown field 'benchmark', did you "
            "mean 'benchmarks'?",
            util::format_diagnostic(found[0]));

  try {
    (void)sim::load_experiment_config(path);
    FAIL() << "a sweep grid loaded as an experiment";
  } catch (const sim::ConfigError& e) {
    EXPECT_EQ("$", e.path());
    EXPECT_NE(std::string(e.what()).find("dtpm sweep"), std::string::npos)
        << e.what();
  }
}

TEST(LintDocuments, ClassifierChecksFleetThenSweepThenPlatform) {
  using sim::DocumentKind;
  const auto kind = [](const char* text) {
    return sim::classify_document(util::json_parse(text));
  };
  EXPECT_EQ(DocumentKind::kFleet, kind(R"({"device_count": 1, "base": {}})"));
  for (const char* sweep :
       {R"({"base": {}})", R"({"benchmarks": []})", R"({"platforms": []})",
        R"({"policies": []})", R"({"seeds": []})", R"({"dtpm_grid": []})",
        R"({"scenarios": {}, "floorplan": {}})"}) {
    EXPECT_EQ(DocumentKind::kSweep, kind(sweep)) << sweep;
  }
  EXPECT_EQ(DocumentKind::kPlatform, kind(R"({"floorplan": {}})"));
  EXPECT_EQ(DocumentKind::kExperiment, kind(R"({"benchmark": "crc32"})"));
  EXPECT_EQ(DocumentKind::kExperiment, kind("[]"));
}

// --- param-schema enforcement (L4xx) ----------------------------------------

std::vector<util::Diagnostic> lint_json_text(const std::string& text) {
  util::CollectingSink sink;
  lint::lint_document(util::json_parse(text), "$", sink, {});
  return sink.take();
}

TEST(LintParams, OutOfRangeValueIsAnError) {
  const auto diagnostics = lint_json_text(
      R"({"benchmark": "crc32", "policy": "lint-unit",
          "policy_params": {"gain": 5.0}})");
  ASSERT_EQ(1u, diagnostics.size());
  EXPECT_EQ("L402", diagnostics[0].code);
  EXPECT_EQ(util::Severity::kError, diagnostics[0].severity);
  EXPECT_EQ("$.policy_params.gain", diagnostics[0].path);
}

TEST(LintParams, UnknownKeySuggestsDeclaredOne) {
  const auto diagnostics = lint_json_text(
      R"({"benchmark": "crc32", "policy": "lint-unit",
          "policy_params": {"gian": 0.5}})");
  ASSERT_EQ(1u, diagnostics.size());
  EXPECT_EQ("L401", diagnostics[0].code);
  EXPECT_NE(std::string::npos,
            diagnostics[0].message.find("did you mean 'gain'?"));
}

TEST(LintParams, DeclaredInRangeParamIsClean) {
  const auto diagnostics = lint_json_text(
      R"({"benchmark": "crc32", "policy": "lint-unit",
          "policy_params": {"gain": 0.5}})");
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintParams, RegistryExposesSchema) {
  const governors::ParamSchema schema =
      governors::PolicyRegistry::instance().param_schema("lint-unit");
  ASSERT_TRUE(schema.declared);
  ASSERT_EQ(1u, schema.params.size());
  EXPECT_EQ("gain", schema.params[0].name);
  // Builtins declare "takes no params" rather than leaving it unknown.
  EXPECT_TRUE(
      governors::PolicyRegistry::instance().param_schema("dtpm").declared);
}

// --- semantic platform checks not reachable through the parser --------------

/// The parse-level validator already rejects dangling refs in files, so the
/// programmatic path (descriptors built in C++) is where L102/L103 earn
/// their keep.
TEST(LintPlatform, DanglingRoleAndBadCapacitance) {
  sim::PlatformDescriptor descriptor =
      *sim::PlatformRegistry::instance().get("odroid-xu-e");
  descriptor.floorplan.gpu_node = "gpu_misspelled";
  descriptor.floorplan.nodes[0].capacitance_j_per_k = 0.0;

  util::CollectingSink sink;
  lint::lint_platform(descriptor, "$", sink, {});
  std::set<std::string> codes;
  for (const util::Diagnostic& d : sink.diagnostics()) codes.insert(d.code);
  EXPECT_TRUE(codes.count("L102"));
  EXPECT_TRUE(codes.count("L103"));
}

/// Two heat sources on one node: the spec validator throws, so only a
/// descriptor built in C++ reaches the lint pass.
TEST(LintPlatform, HeatSourcesSharingANode) {
  sim::PlatformDescriptor descriptor =
      *sim::PlatformRegistry::instance().get("odroid-xu-e");
  descriptor.floorplan.gpu_node = descriptor.floorplan.mem_node;
  descriptor.floorplan.core_nodes[3] = descriptor.floorplan.core_nodes[1];

  util::CollectingSink sink;
  lint::lint_platform(descriptor, "$", sink, {});
  std::vector<std::string> l109;
  for (const util::Diagnostic& d : sink.diagnostics()) {
    if (d.code == "L109") l109.push_back(util::format_diagnostic(d));
  }
  const std::string fix =
      "; the plant heats a node from one source only -- give each heat "
      "source its own node";
  EXPECT_EQ(l109, (std::vector<std::string>{
                      "$.floorplan.core_nodes[3]: error L109: core_nodes[3] "
                      "shares node 'big1' with core_nodes[1]" + fix,
                      "$.floorplan.mem_node: error L109: mem_node shares "
                      "node 'mem' with gpu_node" + fix}));

  util::CollectingSink clean;
  lint::lint_platform(*sim::PlatformRegistry::instance().get("odroid-xu-e"),
                      "$", clean, {});
  for (const util::Diagnostic& d : clean.diagnostics()) {
    EXPECT_NE(d.code, "L109");
  }
}

TEST(LintPlatform, OppTableOrderingAndDuplicates) {
  sim::PlatformDescriptor descriptor =
      *sim::PlatformRegistry::instance().get("odroid-xu-e");
  descriptor.big_opps = {{1.2e9, 1.0}, {8.0e8, 0.9}, {8.0e8, 0.9}};
  descriptor.little_opps.clear();

  util::CollectingSink sink;
  lint::lint_platform(descriptor, "$", sink, {});
  std::set<std::string> codes;
  for (const util::Diagnostic& d : sink.diagnostics()) codes.insert(d.code);
  EXPECT_TRUE(codes.count("L201"));  // empty little table
  EXPECT_TRUE(codes.count("L202"));  // non-ascending frequency
  EXPECT_TRUE(codes.count("L203"));  // duplicate frequency
}

/// Every registered platform lints clean, including the deep stability
/// pre-check -- the same gate CI runs via `dtpm lint --platforms --deep`.
TEST(LintPlatform, RegistryPlatformsAreCleanEvenDeep) {
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  lint::LintOptions deep;
  deep.deep = true;
  for (const std::string& name : registry.names()) {
    util::CollectingSink sink;
    lint::lint_platform(*registry.get(name), "$", sink, deep);
    EXPECT_TRUE(sink.diagnostics().empty())
        << name << ": " << render(sink.diagnostics());
  }
}

// --- shipped configs stay clean ---------------------------------------------

TEST(LintExamples, ShippedConfigsLintClean) {
  const std::vector<std::string> configs = {
      "quickstart.json",          "custom_platform.json",
      "engine_throughput.json",   "policy_comparison.json",
      "scenario_fuzz.json"};
  for (const std::string& name : configs) {
    util::CollectingSink sink;
    lint::lint_file(std::string(DTPM_CONFIG_DIR) + "/" + name, sink, {});
    EXPECT_TRUE(sink.diagnostics().empty())
        << name << ": " << render(sink.diagnostics());
  }
}

// --- the CLI exit-code contract ---------------------------------------------

TEST(LintCli, ErrorsExitNonZero) {
  const CliResult result =
      run_cli({"lint", corpus_path("multi_error.json")});
  EXPECT_EQ(1, result.exit_code);
  EXPECT_NE(std::string::npos, result.out.find("error L005"));
}

TEST(LintCli, WarningsOnlyExitZero) {
  const CliResult result =
      run_cli({"lint", corpus_path("trace_blowup.json")});
  EXPECT_EQ(0, result.exit_code);
  EXPECT_NE(std::string::npos, result.out.find("warning L306"));
}

TEST(LintCli, ManyFilesAggregateOneSummary) {
  const CliResult result = run_cli({"lint",
                                    corpus_path("multi_error.json"),
                                    corpus_path("empty_axes.json")});
  EXPECT_EQ(1, result.exit_code);
  EXPECT_NE(std::string::npos, result.out.find("2 artifact(s) checked"));
}

TEST(LintCli, QuietSuppressesTheSummary) {
  const CliResult result =
      run_cli({"lint", "--quiet", corpus_path("trace_blowup.json")});
  EXPECT_EQ(0, result.exit_code);
  EXPECT_EQ(std::string::npos, result.out.find("artifact(s) checked"));
}

TEST(LintCli, PlatformsDeepIsClean) {
  const CliResult result = run_cli({"lint", "--platforms", "--deep"});
  EXPECT_EQ(0, result.exit_code) << result.out << result.err;
}

TEST(LintCli, NoInputIsAUsageError) {
  EXPECT_EQ(2, run_cli({"lint"}).exit_code);
  EXPECT_EQ(2, run_cli({"lint", "--bogus-flag"}).exit_code);
}

}  // namespace
}  // namespace dtpm
