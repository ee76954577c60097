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

void lint_document(const util::JsonValue& json, const std::string& path,
                   util::DiagnosticSink& sink, const LintOptions& options) {
  const std::size_t errors_before = sink.error_count();
  const auto parse_clean = [&] { return sink.error_count() == errors_before; };
  switch (sim::classify_document(json)) {
    case sim::DocumentKind::kFleet: {
      const serve::FleetSpec spec = serve::fleet_from_json(json, path, sink);
      if (parse_clean()) lint_fleet(spec, &json, path, sink, options);
      return;
    }
    case sim::DocumentKind::kSweep: {
      const sim::SweepSpec spec = sim::sweep_from_json(json, path, sink);
      if (parse_clean()) lint_sweep(spec, &json, path, sink, options);
      return;
    }
    case sim::DocumentKind::kPlatform: {
      // A standalone platform file (load_platform's input).
      const sim::PlatformDescriptor descriptor =
          sim::platform_from_json(json, path, sink);
      if (parse_clean()) lint_platform(descriptor, path, sink, options);
      return;
    }
    case sim::DocumentKind::kExperiment: {
      const sim::ExperimentConfig config =
          sim::experiment_from_json(json, path, sink);
      if (parse_clean()) lint_experiment(config, path, sink, options);
      return;
    }
  }
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
