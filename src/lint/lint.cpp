// The lint driver: document-kind detection, the collecting parse, and the
// decision of when semantic passes run. Mirrors a compiler front end --
// syntax (parse diagnostics, L0xx) gates semantics (L1xx+): a document that
// failed to parse cleanly gets its parse findings only, because semantic
// checks over a knowingly partial value would report follow-on noise.
#include "lint/lint.hpp"

#include <exception>
#include <string>

#include "serve/fleet_io.hpp"
#include "util/json.hpp"

namespace dtpm::lint {

namespace {

/// True when the document uses any sweep-only member. An experiment
/// document uses the singular forms ("benchmark", "platform", "policy"), so
/// any plural axis or a "base"/"scenarios" block marks a sweep grid.
bool looks_like_sweep(const util::JsonValue& json) {
  static const char* const kSweepMembers[] = {
      "base",  "benchmarks", "platforms", "policies",
      "seeds", "dtpm_grid",  "scenarios"};
  for (const char* member : kSweepMembers) {
    if (json.find(member) != nullptr) return true;
  }
  return false;
}

}  // namespace

void lint_document(const util::JsonValue& json, const std::string& path,
                   util::DiagnosticSink& sink, const LintOptions& options) {
  const std::size_t errors_before = sink.error_count();
  // Fleet first: a fleet spec also has "base", so the sweep check would
  // otherwise claim it. "device_count" is the fleet discriminator.
  if (json.is_object() && json.find("device_count") != nullptr) {
    const serve::FleetSpec spec = serve::fleet_from_json(json, path, sink);
    if (sink.error_count() == errors_before) {
      lint_fleet(spec, &json, path, sink, options);
    }
    return;
  }
  if (json.is_object() && looks_like_sweep(json)) {
    const sim::SweepSpec spec = sim::sweep_from_json(json, path, sink);
    if (sink.error_count() == errors_before) {
      lint_sweep(spec, &json, path, sink, options);
    }
    return;
  }
  if (json.is_object() && json.find("floorplan") != nullptr) {
    // A standalone platform file (load_platform's input).
    const sim::PlatformDescriptor descriptor =
        sim::platform_from_json(json, path, sink);
    if (sink.error_count() == errors_before) {
      lint_platform(descriptor, path, sink, options);
    }
    return;
  }
  const sim::ExperimentConfig config =
      sim::experiment_from_json(json, path, sink);
  if (sink.error_count() != errors_before) return;
  lint_experiment(config, path, sink, options);
}

void lint_file(const std::string& file_path, util::DiagnosticSink& sink,
               const LintOptions& options) {
  util::JsonValue json;
  try {
    json = util::json_parse_file(file_path);
  } catch (const std::exception& e) {
    // File access and JSON syntax failures in one code: there is no
    // document to attach a deeper path to.
    sink.error("L001", "$", e.what());
    return;
  }
  lint_document(json, "$", sink, options);
}

}  // namespace dtpm::lint
