#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "host.hpp"
#include "stats.hpp"
#include "serve/protocol.hpp"
#include "sim/calibration.hpp"
#include "sim/platform_registry.hpp"

namespace perfbench {

namespace util = dtpm::util;
namespace sim = dtpm::sim;

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not a finite number", 0);
  metrics_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

void Report::check(bool ok, const std::string& what, std::uint64_t ops) {
  if (ok) return;
  correct_ = false;
  failed_ += ops;
  std::cerr << "perfbench: check failed: " << what << '\n';
}

void Report::note(const std::string& line) { std::cout << line << '\n'; }

std::string Report::result_line() const {
  util::JsonValue metrics((util::JsonObject()));
  for (const auto& [name, value_unit] : metrics_) {
    util::JsonValue m((util::JsonObject()));
    m.set("value", value_unit.first);
    m.set("unit", value_unit.second);
    metrics.set(name, std::move(m));
  }
  util::JsonValue out((util::JsonObject()));
  out.set("correct", correct_);
  out.set("attempted", std::max<std::uint64_t>(attempted_, 1));
  out.set("failed", failed_);
  out.set("metrics", std::move(metrics));
  return util::json_write(out, 0);
}

double registry_work_ms() {
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  std::vector<sim::PlatformDescriptor> descriptors;
  for (const std::string& name : registry.names()) {
    descriptors.push_back(*registry.get(name));
  }
  const std::int64_t start = now_ns();
  sim::PlatformRegistry fresh;
  for (sim::PlatformDescriptor& d : descriptors) fresh.add(std::move(d));
  return double(now_ns() - start) / 1e6;
}

std::vector<std::string> platform_names() {
  return sim::PlatformRegistry::instance().names();
}

const std::vector<std::string>& paper_policies() {
  static const std::vector<std::string> kPolicies{"default+fan", "no-fan",
                                                  "reactive", "dtpm"};
  return kPolicies;
}

const dtpm::sysid::IdentifiedPlatformModel* model_for(
    const sim::ExperimentConfig& config) {
  if (!sim::needs_identified_model(config)) return nullptr;
  return &sim::platform_calibration(sim::resolved_platform(config)).model;
}

util::JsonValue without_wall(util::JsonValue summary) {
  util::JsonObject kept;
  for (auto& [key, value] : summary.as_object()) {
    if (key != "wall_time_s") kept.emplace_back(key, value);
  }
  return util::JsonValue(std::move(kept));
}

util::JsonValue summary_without_wall(const sim::RunResult& result) {
  util::JsonValue summary = without_wall(dtpm::serve::run_summary_json(result));
  summary.set("plant_substeps", std::uint64_t(result.plant_substeps));
  return summary;
}

void note_pass_rates(const std::vector<double>& rates, Report& report) {
  std::ostringstream line;
  line << "pass rates (1/s):";
  for (double r : rates) line << ' ' << std::lround(r);
  line << "; IQR/median " << relative_iqr(rates);
  report.note(line.str());
}

void write_trace(const Options& opts, const Tracer& tracer, Report& report) {
  namespace fs = std::filesystem;
  fs::create_directories(opts.out_dir);
  const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed);
  util::json_write_file(stem + "-trace.json", tracer.chrome_trace(), 0);

  std::ostringstream table;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %8s %12s %12s %12s", "span", "count",
                "total_ms", "self_ms", "self_us/op");
  table << line << '\n';
  for (const LayerRow& row : tracer.layer_table()) {
    std::snprintf(line, sizeof line, "%-28s %8zu %12.3f %12.3f %12.3f",
                  row.name.c_str(), row.count, row.total_ms, row.self_ms,
                  row.self_ms * 1e3 / double(row.count));
    table << line << '\n';
  }
  std::ofstream(stem + "-layers.txt") << table.str();
  report.note(table.str() + "trace: " + stem + "-trace.json");
}

}  // namespace perfbench
