#include "sim/config_io.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "governors/policy_registry.hpp"
#include "serve/fleet_io.hpp"
#include "sim/platform_registry.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/stepping_engine.hpp"
#include "util/names.hpp"
#include "workload/suite.hpp"

namespace dtpm::sim {

namespace {

using util::DiagnosticSink;
using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

std::string type_of(const JsonValue& v) {
  return JsonValue::type_name(v.type());
}

// Diagnostic codes of the parse layer (the L0xx block; the lint passes own
// L1xx and up). Stable identifiers -- never renumber.
constexpr char kCodeType[] = "L002";      // type mismatch
constexpr char kCodeRange[] = "L003";     // value outside its valid range
constexpr char kCodeUnknownField[] = "L004";
constexpr char kCodeUnknownName[] = "L005";
constexpr char kCodeConstraint[] = "L006";  // structural/semantic violation

/// Collecting-mode control flow: thrown *after* an error was reported when
/// the surrounding subtree cannot be parsed further (e.g. a member that is
/// not even an object). Callers recover at element/section boundaries via
/// with_recovery. In throwing mode the ThrowingSink raises ConfigError
/// before this is reached, so the legacy first-error contract is untouched.
struct ParseAbort {};

/// Reports an error and abandons the current subtree.
[[noreturn]] void fail(DiagnosticSink& sink, const char* code,
                       const std::string& path, const std::string& message) {
  sink.error(code, path, message);
  throw ParseAbort{};
}

/// A collecting-mode recovery boundary: swallows ParseAbort (the error it
/// travels with is already in the sink) so parsing resumes with the next
/// element or section. ConfigError from a ThrowingSink passes through.
template <typename Fn>
void with_recovery(Fn&& fn) {
  try {
    fn();
  } catch (const ParseAbort&) {
  }
}

/// Reads one JSON object: typed, range-checked member access plus an
/// unknown-member sweep (with a did-you-mean suggestion against the members
/// this reader consulted) that every *_from_json runs before returning.
/// Member getters report recoverable problems and leave the output untouched;
/// only a non-object document aborts the subtree.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& json, std::string path, DiagnosticSink& sink)
      : json_(json), path_(std::move(path)), sink_(sink) {
    if (!json_.is_object()) {
      fail(sink_, kCodeConstraint, path_,
           "expected an object, got " + type_of(json_));
    }
  }

  DiagnosticSink& sink() { return sink_; }

  std::string member_path(const std::string& key) const {
    return path_ + "." + key;
  }

  /// Looks a member up and marks the key as known; nullptr when absent.
  const JsonValue* get(const std::string& key) {
    known_.push_back(key);
    return json_.find(key);
  }

  void number(const std::string& key, double& out,
              double lo = std::numeric_limits<double>::lowest(),
              double hi = std::numeric_limits<double>::max()) {
    const JsonValue* v = get(key);
    if (v == nullptr) return;
    if (!v->is_number()) {
      sink_.error(kCodeType, member_path(key),
                  "expected a number, got " + type_of(*v));
      return;
    }
    const double n = v->as_number();
    if (n < lo || n > hi) {
      sink_.error(kCodeRange, member_path(key),
                  "value " + util::json_write(*v, 0) + " outside [" +
                      util::json_write(JsonValue(lo), 0) + ", " +
                      util::json_write(JsonValue(hi), 0) + "]");
      return;
    }
    out = n;
  }

  void boolean(const std::string& key, bool& out) {
    const JsonValue* v = get(key);
    if (v == nullptr) return;
    if (!v->is_bool()) {
      sink_.error(kCodeType, member_path(key),
                  "expected true or false, got " + type_of(*v));
      return;
    }
    out = v->as_bool();
  }

  template <typename Int>
  void integer(const std::string& key, Int& out, std::int64_t lo,
               std::int64_t hi) {
    const JsonValue* v = get(key);
    if (v == nullptr) return;
    if (!v->is_number()) {
      sink_.error(kCodeType, member_path(key),
                  "expected an integer, got " + type_of(*v));
      return;
    }
    try {
      out = static_cast<Int>(v->as_integer(lo, hi));
    } catch (const std::exception& e) {
      sink_.error(kCodeRange, member_path(key), e.what());
    }
  }

  void string(const std::string& key, std::string& out) {
    const JsonValue* v = get(key);
    if (v == nullptr) return;
    if (!v->is_string()) {
      sink_.error(kCodeType, member_path(key),
                  "expected a string, got " + type_of(*v));
      return;
    }
    out = v->as_string();
  }

  /// Reports members no getter consulted; catches config typos like
  /// "plant_substeps_s" with a suggestion from the consulted keys. In
  /// collecting mode every unknown member is reported, not just the first.
  void finish() const {
    for (const auto& [key, value] : json_.as_object()) {
      if (std::find(known_.begin(), known_.end(), key) == known_.end()) {
        std::string message = "unknown field '" + key + "'";
        const std::string suggestion = util::closest_match(key, known_);
        if (!suggestion.empty()) {
          message += ", did you mean '" + suggestion + "'?";
        }
        sink_.error(kCodeUnknownField, path_ + "." + key, message);
      }
    }
  }

 private:
  const JsonValue& json_;
  std::string path_;
  DiagnosticSink& sink_;
  std::vector<std::string> known_;
};

/// Validated name-list member: either absent, or an array of strings.
/// Non-string elements are reported and skipped.
std::vector<std::string> string_list(ObjectReader& reader,
                                     const std::string& key) {
  std::vector<std::string> out;
  const JsonValue* v = reader.get(key);
  if (v == nullptr) return out;
  if (!v->is_array()) {
    reader.sink().error(kCodeType, reader.member_path(key),
                        "expected an array of strings, got " + type_of(*v));
    return out;
  }
  const JsonArray& array = v->as_array();
  for (std::size_t i = 0; i < array.size(); ++i) {
    if (!array[i].is_string()) {
      reader.sink().error(
          kCodeType, reader.member_path(key) + "[" + std::to_string(i) + "]",
          "expected a string, got " + type_of(array[i]));
      continue;
    }
    out.push_back(array[i].as_string());
  }
  return out;
}

std::vector<std::uint64_t> seed_list(ObjectReader& reader,
                                     const std::string& key) {
  std::vector<std::uint64_t> out;
  const JsonValue* v = reader.get(key);
  if (v == nullptr) return out;
  if (!v->is_array()) {
    reader.sink().error(kCodeType, reader.member_path(key),
                        "expected an array of seeds, got " + type_of(*v));
    return out;
  }
  const JsonArray& array = v->as_array();
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string path =
        reader.member_path(key) + "[" + std::to_string(i) + "]";
    if (!array[i].is_number()) {
      reader.sink().error(kCodeType, path,
                          "expected a seed, got " + type_of(array[i]));
      continue;
    }
    try {
      out.push_back(std::uint64_t(array[i].as_integer(0)));
    } catch (const std::exception& e) {
      reader.sink().error(kCodeRange, path, e.what());
    }
  }
  return out;
}

/// True when the name is registered; reports L005 otherwise.
bool validate_policy_name(const std::string& name, const std::string& path,
                          DiagnosticSink& sink) {
  const governors::PolicyRegistry& registry =
      governors::PolicyRegistry::instance();
  if (!registry.contains(name)) {
    sink.error(kCodeUnknownName, path,
               util::unknown_name_message("policy", name, registry.names()));
    return false;
  }
  return true;
}

bool validate_benchmark_name(const std::string& name, const std::string& path,
                             DiagnosticSink& sink) {
  const std::vector<std::string> names = workload::all_benchmark_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    sink.error(kCodeUnknownName, path,
               util::unknown_name_message("benchmark", name, names));
    return false;
  }
  return true;
}

// --- enum <-> string tables --------------------------------------------------

const char* to_string(core::BudgetRowPolicy p) {
  return p == core::BudgetRowPolicy::kHottestCore ? "hottest-core"
                                                  : "all-hotspots";
}

/// Parses into `out`; reports L005 (and leaves `out` untouched) on a miss.
void row_policy_from_string(const std::string& name, const std::string& path,
                            core::BudgetRowPolicy& out, DiagnosticSink& sink) {
  if (name == "hottest-core") {
    out = core::BudgetRowPolicy::kHottestCore;
  } else if (name == "all-hotspots") {
    out = core::BudgetRowPolicy::kAllHotspots;
  } else {
    sink.error(kCodeUnknownName, path,
               util::unknown_name_message("row policy", name,
                                          {"hottest-core", "all-hotspots"}));
  }
}

const std::vector<std::pair<workload::Category, std::string>>& categories() {
  static const std::vector<std::pair<workload::Category, std::string>> table =
      [] {
        std::vector<std::pair<workload::Category, std::string>> t;
        for (workload::Category c :
             {workload::Category::kSecurity, workload::Category::kNetwork,
              workload::Category::kComputational,
              workload::Category::kTelecomm, workload::Category::kConsumer,
              workload::Category::kGames, workload::Category::kVideo}) {
          t.emplace_back(c, workload::to_string(c));
        }
        return t;
      }();
  return table;
}

const std::vector<std::pair<workload::PowerClass, std::string>>&
power_classes() {
  static const std::vector<std::pair<workload::PowerClass, std::string>>
      table = [] {
        std::vector<std::pair<workload::PowerClass, std::string>> t;
        for (workload::PowerClass c :
             {workload::PowerClass::kLow, workload::PowerClass::kMedium,
              workload::PowerClass::kHigh}) {
          t.emplace_back(c, workload::to_string(c));
        }
        return t;
      }();
  return table;
}

template <typename Enum>
void enum_from_string(const std::vector<std::pair<Enum, std::string>>& table,
                      const std::string& kind, const std::string& name,
                      const std::string& path, Enum& out,
                      DiagnosticSink& sink) {
  std::vector<std::string> valid;
  for (const auto& [value, string] : table) {
    if (string == name) {
      out = value;
      return;
    }
    valid.push_back(string);
  }
  sink.error(kCodeUnknownName, path,
             util::unknown_name_message(kind, name, valid));
}

}  // namespace

// --- DtpmParams --------------------------------------------------------------

JsonValue to_json(const core::DtpmParams& params) {
  JsonValue json((JsonObject()));
  json.set("t_max_c", params.t_max_c);
  json.set("horizon_steps", params.horizon_steps);
  json.set("guard_band_c", params.guard_band_c);
  json.set("delta_hotspot_c", params.delta_hotspot_c);
  json.set("min_big_cores", params.min_big_cores);
  json.set("recovery_margin_c", params.recovery_margin_c);
  json.set("restriction_dwell_s", params.restriction_dwell_s);
  json.set("row_policy", to_string(params.row_policy));
  return json;
}

namespace {

void dtpm_params_into(core::DtpmParams& params, const JsonValue& json,
                      const std::string& path, DiagnosticSink& sink) {
  ObjectReader reader(json, path, sink);
  reader.number("t_max_c", params.t_max_c, 0.0, 150.0);
  reader.integer("horizon_steps", params.horizon_steps, 1, 1000);
  reader.number("guard_band_c", params.guard_band_c, 0.0, 50.0);
  reader.number("delta_hotspot_c", params.delta_hotspot_c, 0.0, 50.0);
  reader.integer("min_big_cores", params.min_big_cores, 1,
                 soc::kBigCoreCount);
  reader.number("recovery_margin_c", params.recovery_margin_c, 0.0, 50.0);
  reader.number("restriction_dwell_s", params.restriction_dwell_s, 0.0,
                3600.0);
  std::string row_policy;
  reader.string("row_policy", row_policy);
  if (!row_policy.empty()) {
    row_policy_from_string(row_policy, path + ".row_policy",
                           params.row_policy, sink);
  }
  reader.finish();
}

}  // namespace

core::DtpmParams dtpm_params_from_json(const JsonValue& json,
                                       const std::string& path,
                                       const core::DtpmParams& base,
                                       DiagnosticSink& sink) {
  core::DtpmParams params = base;
  with_recovery([&] { dtpm_params_into(params, json, path, sink); });
  return params;
}

core::DtpmParams dtpm_params_from_json(const JsonValue& json,
                                       const std::string& path,
                                       const core::DtpmParams& base) {
  ThrowingSink sink;
  return dtpm_params_from_json(json, path, base, sink);
}

// --- workload::Benchmark -----------------------------------------------------

JsonValue to_json(const workload::Benchmark& benchmark) {
  JsonValue json((JsonObject()));
  json.set("name", benchmark.name);
  json.set("category", workload::to_string(benchmark.category));
  json.set("power_class", workload::to_string(benchmark.power_class));
  JsonArray phases;
  for (const workload::Phase& phase : benchmark.phases) {
    JsonValue p((JsonObject()));
    p.set("work_fraction", phase.work_fraction);
    p.set("cpu_activity", phase.cpu_activity);
    p.set("mem_intensity", phase.mem_intensity);
    p.set("gpu_load", phase.gpu_load);
    p.set("threads", phase.threads);
    p.set("duty", phase.duty);
    phases.push_back(std::move(p));
  }
  json.set("phases", JsonValue(std::move(phases)));
  json.set("total_work_units", benchmark.total_work_units);
  json.set("cpu_cycles_per_unit", benchmark.cpu_cycles_per_unit);
  json.set("mem_seconds_per_unit", benchmark.mem_seconds_per_unit);
  json.set("gpu_cycles_per_unit", benchmark.gpu_cycles_per_unit);
  json.set("multithreaded", benchmark.multithreaded);
  return json;
}

namespace {

void benchmark_into(workload::Benchmark& benchmark, const JsonValue& json,
                    const std::string& path, DiagnosticSink& sink) {
  ObjectReader reader(json, path, sink);
  reader.string("name", benchmark.name);
  std::string category, power_class;
  reader.string("category", category);
  if (!category.empty()) {
    enum_from_string(categories(), "category", category, path + ".category",
                     benchmark.category, sink);
  }
  reader.string("power_class", power_class);
  if (!power_class.empty()) {
    enum_from_string(power_classes(), "power class", power_class,
                     path + ".power_class", benchmark.power_class, sink);
  }
  if (const JsonValue* phases = reader.get("phases")) {
    if (!phases->is_array()) {
      sink.error(kCodeType, path + ".phases",
                 "expected an array of phase objects, got " + type_of(*phases));
    } else {
      benchmark.phases.clear();
      const JsonArray& array = phases->as_array();
      for (std::size_t i = 0; i < array.size(); ++i) {
        const std::string phase_path =
            path + ".phases[" + std::to_string(i) + "]";
        with_recovery([&] {
          workload::Phase phase;
          ObjectReader phase_reader(array[i], phase_path, sink);
          phase_reader.number("work_fraction", phase.work_fraction, 0.0, 1.0);
          phase_reader.number("cpu_activity", phase.cpu_activity, 0.0, 1.0);
          phase_reader.number("mem_intensity", phase.mem_intensity, 0.0, 1.0);
          phase_reader.number("gpu_load", phase.gpu_load, 0.0, 1.0);
          phase_reader.integer("threads", phase.threads, 1, 64);
          phase_reader.number("duty", phase.duty, 0.0, 1.0);
          phase_reader.finish();
          benchmark.phases.push_back(phase);
        });
      }
    }
  }
  reader.number("total_work_units", benchmark.total_work_units, 0.0,
                std::numeric_limits<double>::max());
  reader.number("cpu_cycles_per_unit", benchmark.cpu_cycles_per_unit, 0.0,
                std::numeric_limits<double>::max());
  reader.number("mem_seconds_per_unit", benchmark.mem_seconds_per_unit, 0.0,
                std::numeric_limits<double>::max());
  reader.number("gpu_cycles_per_unit", benchmark.gpu_cycles_per_unit, 0.0,
                std::numeric_limits<double>::max());
  reader.boolean("multithreaded", benchmark.multithreaded);
  reader.finish();
  try {
    benchmark.validate();
  } catch (const std::exception& e) {
    sink.error(kCodeConstraint, path,
               std::string("invalid benchmark: ") + e.what());
  }
}

}  // namespace

workload::Benchmark benchmark_from_json(const JsonValue& json,
                                        const std::string& path,
                                        DiagnosticSink& sink) {
  workload::Benchmark benchmark;
  with_recovery([&] { benchmark_into(benchmark, json, path, sink); });
  return benchmark;
}

workload::Benchmark benchmark_from_json(const JsonValue& json,
                                        const std::string& path) {
  ThrowingSink sink;
  return benchmark_from_json(json, path, sink);
}

// --- workload::ScenarioParams ------------------------------------------------

JsonValue to_json(const workload::ScenarioParams& params) {
  JsonValue json((JsonObject()));
  json.set("nominal_duration_s", params.nominal_duration_s);
  json.set("intensity", params.intensity);
  json.set("thermal_time_constant_s", params.thermal_time_constant_s);
  return json;
}

workload::ScenarioParams scenario_params_from_json(const JsonValue& json,
                                                   const std::string& path,
                                                   DiagnosticSink& sink) {
  workload::ScenarioParams params;
  with_recovery([&] {
    ObjectReader reader(json, path, sink);
    reader.number("nominal_duration_s", params.nominal_duration_s, 1.0, 1e6);
    reader.number("intensity", params.intensity, 0.0, 10.0);
    reader.number("thermal_time_constant_s", params.thermal_time_constant_s,
                  0.1, 1e4);
    reader.finish();
  });
  return params;
}

workload::ScenarioParams scenario_params_from_json(const JsonValue& json,
                                                   const std::string& path) {
  ThrowingSink sink;
  return scenario_params_from_json(json, path, sink);
}

// --- sim::PlatformDescriptor -------------------------------------------------

namespace {

JsonValue leakage_to_json(const power::LeakageParams& params) {
  JsonValue json((JsonObject()));
  json.set("c1", params.c1);
  json.set("c2_k", params.c2_k);
  json.set("i_gate_a", params.i_gate_a);
  json.set("v_ref", params.v_ref);
  json.set("dibl_exponent", params.dibl_exponent);
  return json;
}

void leakage_from_json(ObjectReader& parent, const std::string& key,
                       power::LeakageParams& out, const std::string& path) {
  const JsonValue* v = parent.get(key);
  if (v == nullptr) return;
  with_recovery([&] {
    ObjectReader reader(*v, path + "." + key, parent.sink());
    reader.number("c1", out.c1, 0.0, 1.0);
    reader.number("c2_k", out.c2_k, -1e5, 0.0);
    reader.number("i_gate_a", out.i_gate_a, 0.0, 10.0);
    reader.number("v_ref", out.v_ref, 1e-3, 10.0);
    reader.number("dibl_exponent", out.dibl_exponent, 0.0, 10.0);
    reader.finish();
  });
}

JsonValue opps_to_json(const std::vector<power::Opp>& opps) {
  JsonArray array;
  for (const power::Opp& opp : opps) {
    JsonValue p((JsonObject()));
    p.set("frequency_hz", opp.frequency_hz);
    p.set("voltage_v", opp.voltage_v);
    array.push_back(std::move(p));
  }
  return JsonValue(std::move(array));
}

void opps_from_json(ObjectReader& parent, const std::string& key,
                    std::vector<power::Opp>& out, const std::string& path) {
  const JsonValue* v = parent.get(key);
  if (v == nullptr) return;
  DiagnosticSink& sink = parent.sink();
  const std::string list_path = path + "." + key;
  if (!v->is_array()) {
    sink.error(kCodeType, list_path,
               "expected an array of operating points, got " + type_of(*v));
    return;
  }
  out.clear();
  const JsonArray& array = v->as_array();
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string p = list_path + "[" + std::to_string(i) + "]";
    with_recovery([&] {
      power::Opp opp;
      ObjectReader reader(array[i], p, sink);
      reader.number("frequency_hz", opp.frequency_hz, 1.0, 1e12);
      reader.number("voltage_v", opp.voltage_v, 1e-3, 10.0);
      reader.finish();
      if (opp.frequency_hz <= 0.0) {
        sink.error(kCodeConstraint, p,
                   "operating point needs a positive frequency_hz");
        return;
      }
      out.push_back(opp);
    });
  }
}

JsonValue floorplan_to_json(const thermal::FloorplanSpec& spec) {
  JsonValue json((JsonObject()));
  JsonArray nodes;
  for (const thermal::FloorplanNodeSpec& node : spec.nodes) {
    JsonValue n((JsonObject()));
    n.set("name", node.name);
    n.set("capacitance_j_per_k", node.capacitance_j_per_k);
    n.set("initial_temp_c", node.initial_temp_c);
    if (node.is_boundary) n.set("boundary", true);
    nodes.push_back(std::move(n));
  }
  json.set("nodes", JsonValue(std::move(nodes)));
  JsonArray edges;
  for (const thermal::FloorplanEdgeSpec& edge : spec.edges) {
    JsonValue e((JsonObject()));
    e.set("a", edge.node_a);
    e.set("b", edge.node_b);
    e.set("conductance_w_per_k", edge.conductance_w_per_k);
    if (edge.fan_modulated) e.set("fan", true);
    edges.push_back(std::move(e));
  }
  json.set("edges", JsonValue(std::move(edges)));
  JsonArray cores;
  for (const std::string& name : spec.core_nodes) cores.emplace_back(name);
  json.set("core_nodes", JsonValue(std::move(cores)));
  json.set("little_node", spec.little_node);
  json.set("gpu_node", spec.gpu_node);
  json.set("mem_node", spec.mem_node);
  JsonArray sensors;
  for (const std::string& name : spec.sensor_nodes) sensors.emplace_back(name);
  json.set("sensor_nodes", JsonValue(std::move(sensors)));
  return json;
}

void floorplan_into(thermal::FloorplanSpec& spec, const JsonValue& json,
                    const std::string& path, DiagnosticSink& sink) {
  const std::size_t errors_before = sink.error_count();
  ObjectReader reader(json, path, sink);

  const JsonValue* nodes = reader.get("nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    fail(sink, nodes == nullptr ? kCodeConstraint : kCodeType, path + ".nodes",
         nodes == nullptr ? "a floorplan requires a 'nodes' array"
                          : "expected an array of node objects, "
                            "got " + type_of(*nodes));
  }
  for (std::size_t i = 0; i < nodes->as_array().size(); ++i) {
    const std::string node_path =
        path + ".nodes[" + std::to_string(i) + "]";
    with_recovery([&] {
      thermal::FloorplanNodeSpec node;
      ObjectReader node_reader(nodes->as_array()[i], node_path, sink);
      node_reader.string("name", node.name);
      if (node.name.empty()) {
        fail(sink, kCodeConstraint, node_path,
             "node needs a non-empty 'name'");
      }
      node_reader.number("capacitance_j_per_k", node.capacitance_j_per_k, 1e-9,
                         1e9);
      node_reader.number("initial_temp_c", node.initial_temp_c, -273.15,
                         1000.0);
      node_reader.boolean("boundary", node.is_boundary);
      node_reader.finish();
      spec.nodes.push_back(std::move(node));
    });
  }

  const JsonValue* edges = reader.get("edges");
  if (edges == nullptr || !edges->is_array()) {
    fail(sink, edges == nullptr ? kCodeConstraint : kCodeType, path + ".edges",
         edges == nullptr ? "a floorplan requires an 'edges' array"
                          : "expected an array of edge objects, "
                            "got " + type_of(*edges));
  }
  // Known node names, for reference checks that pin the exact member --
  // "$.platform.floorplan.edges[3].a: unknown node 'big9'" beats a
  // whole-floorplan error.
  std::vector<std::string> node_names;
  for (const thermal::FloorplanNodeSpec& node : spec.nodes) {
    node_names.push_back(node.name);
  }
  auto check_node_ref = [&](const std::string& name,
                            const std::string& ref_path) {
    if (std::find(node_names.begin(), node_names.end(), name) ==
        node_names.end()) {
      sink.error(kCodeUnknownName, ref_path,
                 util::unknown_name_message("node", name, node_names));
    }
  };

  for (std::size_t i = 0; i < edges->as_array().size(); ++i) {
    const std::string edge_path =
        path + ".edges[" + std::to_string(i) + "]";
    with_recovery([&] {
      thermal::FloorplanEdgeSpec edge;
      ObjectReader edge_reader(edges->as_array()[i], edge_path, sink);
      edge_reader.string("a", edge.node_a);
      edge_reader.string("b", edge.node_b);
      if (edge.node_a.empty() || edge.node_b.empty()) {
        fail(sink, kCodeConstraint, edge_path,
             "edge needs node names 'a' and 'b'");
      }
      check_node_ref(edge.node_a, edge_path + ".a");
      check_node_ref(edge.node_b, edge_path + ".b");
      edge_reader.number("conductance_w_per_k", edge.conductance_w_per_k,
                         1e-12, 1e9);
      edge_reader.boolean("fan", edge.fan_modulated);
      edge_reader.finish();
      spec.edges.push_back(std::move(edge));
    });
  }

  spec.core_nodes = string_list(reader, "core_nodes");
  for (std::size_t i = 0; i < spec.core_nodes.size(); ++i) {
    check_node_ref(spec.core_nodes[i],
                   path + ".core_nodes[" + std::to_string(i) + "]");
  }
  reader.string("little_node", spec.little_node);
  if (!spec.little_node.empty()) {
    check_node_ref(spec.little_node, path + ".little_node");
  }
  reader.string("gpu_node", spec.gpu_node);
  if (!spec.gpu_node.empty()) check_node_ref(spec.gpu_node, path + ".gpu_node");
  reader.string("mem_node", spec.mem_node);
  if (!spec.mem_node.empty()) check_node_ref(spec.mem_node, path + ".mem_node");
  spec.sensor_nodes = string_list(reader, "sensor_nodes");
  for (std::size_t i = 0; i < spec.sensor_nodes.size(); ++i) {
    check_node_ref(spec.sensor_nodes[i],
                   path + ".sensor_nodes[" + std::to_string(i) + "]");
  }
  reader.finish();

  // Whole-spec validation only when the members parsed clean: re-checking a
  // knowingly partial spec would bury the real findings under follow-ons.
  if (sink.error_count() != errors_before) return;
  try {
    thermal::validate_floorplan_spec(spec);
  } catch (const std::exception& e) {
    sink.error(kCodeConstraint, path, e.what());
  }
}

thermal::FloorplanSpec floorplan_from_json(const JsonValue& json,
                                           const std::string& path,
                                           DiagnosticSink& sink) {
  thermal::FloorplanSpec spec;
  with_recovery([&] { floorplan_into(spec, json, path, sink); });
  return spec;
}

void plant_power_from_json(ObjectReader& parent, const std::string& key,
                           soc::PlantPowerParams& out,
                           const std::string& parent_path) {
  const JsonValue* v = parent.get(key);
  if (v == nullptr) return;
  const std::string path = parent_path + "." + key;
  with_recovery([&] {
    ObjectReader reader(*v, path, parent.sink());
    leakage_from_json(reader, "big_leakage", out.big_leakage, path);
    leakage_from_json(reader, "little_leakage", out.little_leakage, path);
    leakage_from_json(reader, "gpu_leakage", out.gpu_leakage, path);
    leakage_from_json(reader, "mem_leakage", out.mem_leakage, path);
    reader.number("big_core_alpha_c_max", out.big_core_alpha_c_max, 0.0, 1.0);
    reader.number("little_core_alpha_c_max", out.little_core_alpha_c_max, 0.0,
                  1.0);
    reader.number("gpu_alpha_c_max", out.gpu_alpha_c_max, 0.0, 1.0);
    reader.number("big_uncore_alpha_c", out.big_uncore_alpha_c, 0.0, 1.0);
    reader.number("little_uncore_alpha_c", out.little_uncore_alpha_c, 0.0,
                  1.0);
    reader.number("big_idle_activity", out.big_idle_activity, 0.0, 1.0);
    reader.number("little_idle_activity", out.little_idle_activity, 0.0, 1.0);
    reader.number("gpu_idle_util", out.gpu_idle_util, 0.0, 1.0);
    reader.number("mem_bandwidth_cap", out.mem_bandwidth_cap, 1e-3, 1e3);
    reader.number("offline_core_leakage_fraction",
                  out.offline_core_leakage_fraction, 0.0, 1.0);
    reader.number("inactive_cluster_leakage_fraction",
                  out.inactive_cluster_leakage_fraction, 0.0, 1.0);
    reader.number("mem_dynamic_max_w", out.mem_dynamic_max_w, 0.0, 100.0);
    reader.number("mem_base_w", out.mem_base_w, 0.0, 100.0);
    reader.number("mem_gpu_traffic_weight", out.mem_gpu_traffic_weight, 0.0,
                  10.0);
    reader.number("mem_nominal_voltage_v", out.mem_nominal_voltage_v, 1e-3,
                  10.0);
    reader.number("mem_nominal_frequency_hz", out.mem_nominal_frequency_hz,
                  1.0, 1e12);
    reader.finish();
  });
}

JsonValue plant_power_to_json(const soc::PlantPowerParams& p) {
  JsonValue json((JsonObject()));
  json.set("big_leakage", leakage_to_json(p.big_leakage));
  json.set("little_leakage", leakage_to_json(p.little_leakage));
  json.set("gpu_leakage", leakage_to_json(p.gpu_leakage));
  json.set("mem_leakage", leakage_to_json(p.mem_leakage));
  json.set("big_core_alpha_c_max", p.big_core_alpha_c_max);
  json.set("little_core_alpha_c_max", p.little_core_alpha_c_max);
  json.set("gpu_alpha_c_max", p.gpu_alpha_c_max);
  json.set("big_uncore_alpha_c", p.big_uncore_alpha_c);
  json.set("little_uncore_alpha_c", p.little_uncore_alpha_c);
  json.set("big_idle_activity", p.big_idle_activity);
  json.set("little_idle_activity", p.little_idle_activity);
  json.set("gpu_idle_util", p.gpu_idle_util);
  json.set("mem_bandwidth_cap", p.mem_bandwidth_cap);
  json.set("offline_core_leakage_fraction", p.offline_core_leakage_fraction);
  json.set("inactive_cluster_leakage_fraction",
           p.inactive_cluster_leakage_fraction);
  json.set("mem_dynamic_max_w", p.mem_dynamic_max_w);
  json.set("mem_base_w", p.mem_base_w);
  json.set("mem_gpu_traffic_weight", p.mem_gpu_traffic_weight);
  json.set("mem_nominal_voltage_v", p.mem_nominal_voltage_v);
  json.set("mem_nominal_frequency_hz", p.mem_nominal_frequency_hz);
  return json;
}

}  // namespace

JsonValue to_json(const PlatformDescriptor& d) {
  JsonValue json((JsonObject()));
  json.set("name", d.name);
  json.set("description", d.description);
  json.set("floorplan", floorplan_to_json(d.floorplan));
  json.set("big_cores", d.big_cores);
  json.set("little_cores", d.little_cores);
  json.set("big_opps", opps_to_json(d.big_opps));
  json.set("little_opps", opps_to_json(d.little_opps));
  json.set("gpu_opps", opps_to_json(d.gpu_opps));
  json.set("power", plant_power_to_json(d.power));
  {
    JsonValue perf((JsonObject()));
    perf.set("big_ipc_scale", d.perf.big_ipc_scale);
    perf.set("little_ipc_scale", d.perf.little_ipc_scale);
    perf.set("cluster_switch_stall_s", d.perf.cluster_switch_stall_s);
    json.set("perf", std::move(perf));
  }
  {
    JsonValue fan((JsonObject()));
    fan.set("conductance_off", d.fan.conductance_off);
    fan.set("conductance_low", d.fan.conductance_low);
    fan.set("conductance_half", d.fan.conductance_half);
    fan.set("conductance_full", d.fan.conductance_full);
    fan.set("power_off", d.fan.power_off);
    fan.set("power_low", d.fan.power_low);
    fan.set("power_half", d.fan.power_half);
    fan.set("power_full", d.fan.power_full);
    json.set("fan", std::move(fan));
  }
  {
    JsonValue sensor((JsonObject()));
    sensor.set("quantization_c", d.temp_sensor.quantization_c);
    sensor.set("noise_stddev_c", d.temp_sensor.noise_stddev_c);
    json.set("temp_sensor", std::move(sensor));
  }
  {
    JsonValue sensor((JsonObject()));
    sensor.set("noise_fraction", d.power_sensor.noise_fraction);
    sensor.set("quantization_w", d.power_sensor.quantization_w);
    json.set("power_sensor", std::move(sensor));
  }
  {
    JsonValue load((JsonObject()));
    load.set("board_base_w", d.platform_load.board_base_w);
    load.set("display_w", d.platform_load.display_w);
    json.set("platform_load", std::move(load));
  }
  json.set("default_t_max_c", d.default_t_max_c);
  json.set("runaway_abort_temp_c", d.runaway_abort_temp_c);
  return json;
}

namespace {

void platform_into(PlatformDescriptor& d, const JsonValue& json,
                   const std::string& path, DiagnosticSink& sink) {
  const std::size_t errors_before = sink.error_count();
  ObjectReader reader(json, path, sink);
  reader.string("name", d.name);
  reader.string("description", d.description);
  if (const JsonValue* floorplan = reader.get("floorplan")) {
    d.floorplan = floorplan_from_json(*floorplan, path + ".floorplan", sink);
  }
  reader.integer("big_cores", d.big_cores, 1, 64);
  reader.integer("little_cores", d.little_cores, 0, 64);
  opps_from_json(reader, "big_opps", d.big_opps, path);
  opps_from_json(reader, "little_opps", d.little_opps, path);
  opps_from_json(reader, "gpu_opps", d.gpu_opps, path);
  plant_power_from_json(reader, "power", d.power, path);
  if (const JsonValue* perf = reader.get("perf")) {
    with_recovery([&] {
      ObjectReader perf_reader(*perf, path + ".perf", sink);
      perf_reader.number("big_ipc_scale", d.perf.big_ipc_scale, 1e-3, 100.0);
      perf_reader.number("little_ipc_scale", d.perf.little_ipc_scale, 1e-3,
                         100.0);
      perf_reader.number("cluster_switch_stall_s",
                         d.perf.cluster_switch_stall_s, 0.0, 10.0);
      perf_reader.finish();
    });
  }
  if (const JsonValue* fan = reader.get("fan")) {
    with_recovery([&] {
      ObjectReader fan_reader(*fan, path + ".fan", sink);
      fan_reader.number("conductance_off", d.fan.conductance_off, 0.0, 1e6);
      fan_reader.number("conductance_low", d.fan.conductance_low, 0.0, 1e6);
      fan_reader.number("conductance_half", d.fan.conductance_half, 0.0, 1e6);
      fan_reader.number("conductance_full", d.fan.conductance_full, 0.0, 1e6);
      fan_reader.number("power_off", d.fan.power_off, 0.0, 1e3);
      fan_reader.number("power_low", d.fan.power_low, 0.0, 1e3);
      fan_reader.number("power_half", d.fan.power_half, 0.0, 1e3);
      fan_reader.number("power_full", d.fan.power_full, 0.0, 1e3);
      fan_reader.finish();
    });
  }
  if (const JsonValue* sensor = reader.get("temp_sensor")) {
    with_recovery([&] {
      ObjectReader sensor_reader(*sensor, path + ".temp_sensor", sink);
      sensor_reader.number("quantization_c", d.temp_sensor.quantization_c, 0.0,
                           100.0);
      sensor_reader.number("noise_stddev_c", d.temp_sensor.noise_stddev_c, 0.0,
                           100.0);
      sensor_reader.finish();
    });
  }
  if (const JsonValue* sensor = reader.get("power_sensor")) {
    with_recovery([&] {
      ObjectReader sensor_reader(*sensor, path + ".power_sensor", sink);
      sensor_reader.number("noise_fraction", d.power_sensor.noise_fraction,
                           0.0, 1.0);
      sensor_reader.number("quantization_w", d.power_sensor.quantization_w,
                           0.0, 100.0);
      sensor_reader.finish();
    });
  }
  if (const JsonValue* load = reader.get("platform_load")) {
    with_recovery([&] {
      ObjectReader load_reader(*load, path + ".platform_load", sink);
      load_reader.number("board_base_w", d.platform_load.board_base_w, 0.0,
                         1e3);
      load_reader.number("display_w", d.platform_load.display_w, 0.0, 1e3);
      load_reader.finish();
    });
  }
  reader.number("default_t_max_c", d.default_t_max_c, 0.0, 150.0);
  reader.number("runaway_abort_temp_c", d.runaway_abort_temp_c, 0.0, 500.0);
  reader.finish();

  // Descriptor-level validation only on a member-clean parse (see
  // floorplan_into).
  if (sink.error_count() != errors_before) return;
  try {
    d.validate();
  } catch (const std::exception& e) {
    sink.error(kCodeConstraint, path,
               std::string("invalid platform: ") + e.what());
  }
}

}  // namespace

PlatformDescriptor platform_from_json(const JsonValue& json,
                                      const std::string& path,
                                      DiagnosticSink& sink) {
  PlatformDescriptor d;  // defaults: the Odroid plant
  with_recovery([&] { platform_into(d, json, path, sink); });
  return d;
}

PlatformDescriptor platform_from_json(const JsonValue& json,
                                      const std::string& path) {
  ThrowingSink sink;
  return platform_from_json(json, path, sink);
}

PlatformDescriptor load_platform(const std::string& file_path) {
  return platform_from_json(util::json_parse_file(file_path));
}

// --- ExperimentConfig --------------------------------------------------------

JsonValue to_json(const ExperimentConfig& config) {
  JsonValue json((JsonObject()));
  json.set("benchmark", config.benchmark);
  if (config.scenario != nullptr) {
    JsonValue scenario((JsonObject()));
    scenario.set("benchmark", to_json(*config.scenario));
    json.set("scenario", std::move(scenario));
  }
  json.set("policy", config.policy_name);
  if (!config.policy_params.empty()) {
    JsonValue params((JsonObject()));
    for (const auto& [key, value] : config.policy_params) {
      params.set(key, value);
    }
    json.set("policy_params", std::move(params));
  }
  json.set("governor", resolved_governor_name(config));
  if (config.background.has_value()) {
    // Emitted only when set, so configs that derive their background from
    // the benchmark (the default) round-trip byte-identically.
    const workload::BackgroundParams& b = *config.background;
    JsonValue background((JsonObject()));
    background.set("thread_count", b.thread_count);
    background.set("base_duty", b.base_duty);
    background.set("duty_jitter", b.duty_jitter);
    background.set("spike_probability", b.spike_probability);
    background.set("spike_duty", b.spike_duty);
    background.set("cpu_activity", b.cpu_activity);
    background.set("mem_intensity", b.mem_intensity);
    background.set("heavy_load", b.heavy_load);
    background.set("heavy_threads", b.heavy_threads);
    background.set("heavy_activity", b.heavy_activity);
    background.set("heavy_mem_intensity", b.heavy_mem_intensity);
    json.set("background", std::move(background));
  }
  // Emit the compact registry reference when the descriptor is exactly a
  // registered one; a customized descriptor rides along fully inline so
  // every config stays lossless.
  const PlatformPtr platform = resolved_platform(config);
  const PlatformRegistry& registry = PlatformRegistry::instance();
  if (registry.contains(platform->name) &&
      *registry.get(platform->name) == *platform) {
    json.set("platform", platform->name);
  } else {
    json.set("platform", to_json(*platform));
  }
  json.set("dtpm", to_json(config.dtpm));
  json.set("engine", to_string(config.engine));
  json.set("control_interval_s", config.control_interval_s);
  json.set("plant_substep_s", config.plant_substep_s);
  json.set("warmup_s", config.warmup_s);
  json.set("warmup_activity", config.warmup_activity);
  json.set("max_sim_time_s", config.max_sim_time_s);
  json.set("seed", config.seed);
  json.set("record_trace", config.record_trace);
  json.set("observe_predictions", config.observe_predictions);
  json.set("observe_horizon_steps", config.observe_horizon_steps);
  return json;
}

namespace {

void experiment_into(ExperimentConfig& config, const JsonValue& json,
                     const std::string& path, DiagnosticSink& sink) {
  ObjectReader reader(json, path, sink);

  bool benchmark_named = false;
  {
    const JsonValue* v = reader.get("benchmark");
    if (v != nullptr) {
      if (!v->is_string()) {
        sink.error(kCodeType, path + ".benchmark",
                   "expected a string, got " + type_of(*v));
      } else {
        config.benchmark = v->as_string();
        benchmark_named = true;
      }
    }
  }

  if (const JsonValue* scenario = reader.get("scenario")) {
    const std::string scenario_path = path + ".scenario";
    with_recovery([&] {
      ObjectReader scenario_reader(*scenario, scenario_path, sink);
      const JsonValue* family = scenario_reader.get("family");
      const JsonValue* inline_benchmark = scenario_reader.get("benchmark");
      if ((family != nullptr) == (inline_benchmark != nullptr)) {
        fail(sink, kCodeConstraint, scenario_path,
             "expected exactly one of 'family' (generated via the "
             "scenario catalog) or 'benchmark' (fully inline)");
      }
      if (family != nullptr) {
        if (!family->is_string()) {
          fail(sink, kCodeType, scenario_path + ".family",
               "expected a string, got " + type_of(*family));
        }
        std::uint64_t seed = 1;
        scenario_reader.integer("seed", seed, 0, INT64_MAX);
        workload::ScenarioParams params;
        if (const JsonValue* p = scenario_reader.get("params")) {
          params = scenario_params_from_json(*p, scenario_path + ".params",
                                             sink);
        }
        const ScenarioCatalog catalog = ScenarioCatalog::standard(params);
        const std::string& name = family->as_string();
        if (!catalog.contains(name)) {
          fail(sink, kCodeUnknownName, scenario_path + ".family",
               util::unknown_name_message("scenario family", name,
                                          catalog.family_names()));
        }
        config.scenario = std::make_shared<const workload::Benchmark>(
            catalog.make(name, seed));
        if (!benchmark_named) {
          config.benchmark = name + "#s" + std::to_string(seed);
        }
        // Mirror ScenarioCatalog::expand: unless the document pins its own
        // simulation seed, reuse the scenario seed so a `dtpm run` of
        // {family, seed} reproduces the matching sweep row bit-for-bit.
        if (json.find("seed") == nullptr) config.seed = seed;
      } else {
        config.scenario = std::make_shared<const workload::Benchmark>(
            benchmark_from_json(*inline_benchmark,
                                scenario_path + ".benchmark", sink));
        if (!benchmark_named) config.benchmark = config.scenario->name;
      }
      scenario_reader.finish();
    });
  } else if (benchmark_named) {
    // Without an inline scenario the benchmark must resolve in the suite.
    validate_benchmark_name(config.benchmark, path + ".benchmark", sink);
  }

  std::string policy;
  reader.string("policy", policy);
  if (!policy.empty() &&
      validate_policy_name(policy, path + ".policy", sink)) {
    set_policy(config, policy);
  }

  if (const JsonValue* params = reader.get("policy_params")) {
    with_recovery([&] {
      ObjectReader ignored(*params, path + ".policy_params", sink);
      for (const auto& [key, value] : params->as_object()) {
        if (!value.is_number()) {
          sink.error(kCodeType, path + ".policy_params." + key,
                     "expected a number, got " + type_of(value));
          continue;
        }
        config.policy_params[key] = value.as_number();
      }
    });
  }

  std::string governor;
  reader.string("governor", governor);
  if (!governor.empty()) {
    const governors::GovernorRegistry& registry =
        governors::GovernorRegistry::instance();
    if (!registry.contains(governor)) {
      sink.error(kCodeUnknownName, path + ".governor",
                 util::unknown_name_message("governor", governor,
                                            registry.names()));
    } else {
      config.governor_name = governor;
    }
  }

  if (const JsonValue* background = reader.get("background")) {
    const std::string background_path = path + ".background";
    with_recovery([&] {
      workload::BackgroundParams params =
          config.background.value_or(workload::BackgroundParams{});
      ObjectReader bg(*background, background_path, sink);
      bg.integer("thread_count", params.thread_count, 0, 64);
      bg.number("base_duty", params.base_duty, 0.0, 1.0);
      bg.number("duty_jitter", params.duty_jitter, 0.0, 1.0);
      bg.number("spike_probability", params.spike_probability, 0.0, 1.0);
      bg.number("spike_duty", params.spike_duty, 0.0, 1.0);
      bg.number("cpu_activity", params.cpu_activity, 0.0, 1.0);
      bg.number("mem_intensity", params.mem_intensity, 0.0, 1.0);
      bg.boolean("heavy_load", params.heavy_load);
      bg.integer("heavy_threads", params.heavy_threads, 0, 64);
      bg.number("heavy_activity", params.heavy_activity, 0.0, 1.0);
      bg.number("heavy_mem_intensity", params.heavy_mem_intensity, 0.0, 1.0);
      bg.finish();
      config.background = params;
    });
  }

  // "platform" selects the plant: a registry name ("dragon") or a fully
  // inline descriptor object. Parsed before "dtpm" so the platform's
  // default t_max applies unless the document overrides it explicitly.
  if (const JsonValue* platform = reader.get("platform")) {
    const std::string platform_path = path + ".platform";
    if (platform->is_string()) {
      const PlatformRegistry& registry = PlatformRegistry::instance();
      const std::string& name = platform->as_string();
      if (!registry.contains(name)) {
        sink.error(kCodeUnknownName, platform_path,
                   util::unknown_name_message("platform", name,
                                              registry.names()));
      } else {
        set_platform(config, registry.get(name));
      }
    } else if (platform->is_object()) {
      // Adopt the inline descriptor only when its subtree parsed clean:
      // set_platform validates it, which a knowingly broken one cannot
      // survive.
      const std::size_t errors_before = sink.error_count();
      PlatformDescriptor d = platform_from_json(*platform, platform_path,
                                                sink);
      if (sink.error_count() == errors_before) {
        set_platform(config, std::make_shared<const PlatformDescriptor>(
                                 std::move(d)));
      }
    } else {
      sink.error(kCodeType, platform_path,
                 "expected a platform name or an inline platform "
                 "object, got " + type_of(*platform));
    }
  }

  if (const JsonValue* dtpm = reader.get("dtpm")) {
    config.dtpm =
        dtpm_params_from_json(*dtpm, path + ".dtpm", config.dtpm, sink);
  }

  std::string engine;
  reader.string("engine", engine);
  if (!engine.empty()) {
    const std::optional<Engine> parsed = try_parse_engine(engine);
    if (!parsed.has_value()) {
      sink.error(kCodeUnknownName, path + ".engine",
                 util::unknown_name_message("engine", engine, engine_names()));
    } else {
      config.engine = *parsed;
    }
  }

  reader.number("control_interval_s", config.control_interval_s, 1e-4, 60.0);
  reader.number("plant_substep_s", config.plant_substep_s, 1e-5, 60.0);
  reader.number("warmup_s", config.warmup_s, 0.0, 1e6);
  reader.number("warmup_activity", config.warmup_activity, 0.0, 1.0);
  reader.number("max_sim_time_s", config.max_sim_time_s, 0.0, 1e9);
  reader.integer("seed", config.seed, 0, INT64_MAX);
  reader.boolean("record_trace", config.record_trace);
  reader.boolean("observe_predictions", config.observe_predictions);
  reader.integer("observe_horizon_steps", config.observe_horizon_steps, 1,
                 100000);
  reader.finish();

  if (config.plant_substep_s > config.control_interval_s) {
    sink.error(kCodeConstraint, path + ".plant_substep_s",
               "plant substep must not exceed control_interval_s");
  }
}

}  // namespace

ExperimentConfig experiment_from_json(const JsonValue& json,
                                      const std::string& path,
                                      DiagnosticSink& sink) {
  ExperimentConfig config;
  with_recovery([&] { experiment_into(config, json, path, sink); });
  return config;
}

ExperimentConfig experiment_from_json(const JsonValue& json,
                                      const std::string& path) {
  ThrowingSink sink;
  return experiment_from_json(json, path, sink);
}

ExperimentConfig load_experiment_config(const std::string& file_path) {
  const JsonValue json = util::json_parse_file(file_path);
  if (json.is_object() && json.find("device_count") != nullptr) {
    throw ConfigError(
        "$", "this looks like a fleet spec (has 'device_count'); run it "
             "with `dtpm serve` instead");
  }
  if (json.is_object() &&
      (json.find("base") != nullptr || json.find("scenarios") != nullptr ||
       json.find("benchmarks") != nullptr ||
       json.find("platforms") != nullptr)) {
    throw ConfigError(
        "$", "this looks like a sweep grid (has 'base'/'benchmarks'/"
             "'platforms'/'scenarios'); run it with `dtpm sweep` instead");
  }
  return experiment_from_json(json);
}

// --- SweepSpec ---------------------------------------------------------------

std::vector<ExperimentConfig> SweepSpec::expand() const {
  if (has_scenarios) {
    ScenarioCatalog::Sweep sweep;
    sweep.base = base;
    sweep.families = families;
    sweep.platforms = platforms;
    sweep.policy_names = policies;
    if (!scenario_seeds.empty()) sweep.seeds = scenario_seeds;
    return ScenarioCatalog::standard(scenario_params).expand(sweep);
  }
  SweepGrid grid;
  grid.base = base;
  grid.benchmarks = benchmarks;
  grid.platforms = platforms;
  grid.policy_names = policies;
  grid.seeds = seeds;
  grid.dtpm_params = dtpm_grid;
  return sweep(grid);
}

JsonValue to_json(const SweepSpec& spec) {
  JsonValue json((JsonObject()));
  json.set("base", to_json(spec.base));
  if (!spec.benchmarks.empty()) {
    JsonArray names;
    for (const std::string& name : spec.benchmarks) names.emplace_back(name);
    json.set("benchmarks", JsonValue(std::move(names)));
  }
  if (!spec.platforms.empty()) {
    JsonArray names;
    for (const std::string& name : spec.platforms) names.emplace_back(name);
    json.set("platforms", JsonValue(std::move(names)));
  }
  if (!spec.policies.empty()) {
    JsonArray names;
    for (const std::string& name : spec.policies) names.emplace_back(name);
    json.set("policies", JsonValue(std::move(names)));
  }
  if (!spec.seeds.empty()) {
    JsonArray seeds;
    for (std::uint64_t seed : spec.seeds) seeds.emplace_back(seed);
    json.set("seeds", JsonValue(std::move(seeds)));
  }
  if (!spec.dtpm_grid.empty()) {
    JsonArray grid;
    for (const core::DtpmParams& params : spec.dtpm_grid) {
      grid.push_back(to_json(params));
    }
    json.set("dtpm_grid", JsonValue(std::move(grid)));
  }
  if (spec.has_scenarios) {
    JsonValue scenarios((JsonObject()));
    if (!spec.families.empty()) {
      JsonArray names;
      for (const std::string& name : spec.families) names.emplace_back(name);
      scenarios.set("families", JsonValue(std::move(names)));
    }
    if (!spec.scenario_seeds.empty()) {
      JsonArray seeds;
      for (std::uint64_t seed : spec.scenario_seeds) seeds.emplace_back(seed);
      scenarios.set("seeds", JsonValue(std::move(seeds)));
    }
    scenarios.set("params", to_json(spec.scenario_params));
    json.set("scenarios", std::move(scenarios));
  }
  return json;
}

namespace {

void sweep_into(SweepSpec& spec, const JsonValue& json,
                const std::string& path, DiagnosticSink& sink) {
  ObjectReader reader(json, path, sink);

  if (const JsonValue* base = reader.get("base")) {
    spec.base = experiment_from_json(*base, path + ".base", sink);
  }

  spec.benchmarks = string_list(reader, "benchmarks");
  for (std::size_t i = 0; i < spec.benchmarks.size(); ++i) {
    validate_benchmark_name(
        spec.benchmarks[i], path + ".benchmarks[" + std::to_string(i) + "]",
        sink);
  }

  spec.platforms = string_list(reader, "platforms");
  for (std::size_t i = 0; i < spec.platforms.size(); ++i) {
    const PlatformRegistry& registry = PlatformRegistry::instance();
    if (!registry.contains(spec.platforms[i])) {
      sink.error(kCodeUnknownName,
                 path + ".platforms[" + std::to_string(i) + "]",
                 util::unknown_name_message("platform", spec.platforms[i],
                                            registry.names()));
    }
  }

  spec.policies = string_list(reader, "policies");
  for (std::size_t i = 0; i < spec.policies.size(); ++i) {
    validate_policy_name(spec.policies[i],
                         path + ".policies[" + std::to_string(i) + "]", sink);
  }

  spec.seeds = seed_list(reader, "seeds");

  if (const JsonValue* grid = reader.get("dtpm_grid")) {
    if (!grid->is_array()) {
      sink.error(kCodeType, path + ".dtpm_grid",
                 "expected an array of DTPM parameter objects, got " +
                     type_of(*grid));
    } else {
      const JsonArray& array = grid->as_array();
      for (std::size_t i = 0; i < array.size(); ++i) {
        spec.dtpm_grid.push_back(dtpm_params_from_json(
            array[i], path + ".dtpm_grid[" + std::to_string(i) + "]",
            core::DtpmParams{}, sink));
      }
    }
  }

  if (const JsonValue* scenarios = reader.get("scenarios")) {
    if (!spec.benchmarks.empty()) {
      sink.error(kCodeConstraint, path + ".scenarios",
                 "cannot combine a 'benchmarks' axis with a "
                 "'scenarios' selection in one sweep");
    }
    // The catalog expansion has no dtpm axis and reads its seeds from
    // $.scenarios.seeds; accepting these here would silently ignore them.
    if (!spec.seeds.empty()) {
      sink.error(kCodeConstraint, path + ".seeds",
                 "a 'scenarios' sweep takes its seeds from "
                 "$.scenarios.seeds, not a top-level 'seeds' axis");
    }
    if (!spec.dtpm_grid.empty()) {
      sink.error(kCodeConstraint, path + ".dtpm_grid",
                 "a 'dtpm_grid' axis cannot be combined with a "
                 "'scenarios' selection; set base.dtpm instead");
    }
    spec.has_scenarios = true;
    const std::string scenarios_path = path + ".scenarios";
    with_recovery([&] {
      ObjectReader scenario_reader(*scenarios, scenarios_path, sink);
      if (const JsonValue* params = scenario_reader.get("params")) {
        spec.scenario_params =
            scenario_params_from_json(*params, scenarios_path + ".params",
                                      sink);
      }
      spec.families = string_list(scenario_reader, "families");
      const ScenarioCatalog catalog =
          ScenarioCatalog::standard(spec.scenario_params);
      for (std::size_t i = 0; i < spec.families.size(); ++i) {
        if (!catalog.contains(spec.families[i])) {
          sink.error(
              kCodeUnknownName,
              scenarios_path + ".families[" + std::to_string(i) + "]",
              util::unknown_name_message("scenario family", spec.families[i],
                                         catalog.family_names()));
        }
      }
      spec.scenario_seeds = seed_list(scenario_reader, "seeds");
      scenario_reader.finish();
    });
  }

  reader.finish();
}

}  // namespace

SweepSpec sweep_from_json(const JsonValue& json, const std::string& path,
                          DiagnosticSink& sink) {
  SweepSpec spec;
  with_recovery([&] { sweep_into(spec, json, path, sink); });
  return spec;
}

SweepSpec sweep_from_json(const JsonValue& json, const std::string& path) {
  ThrowingSink sink;
  return sweep_from_json(json, path, sink);
}

SweepSpec load_sweep_spec(const std::string& file_path) {
  return sweep_from_json(util::json_parse_file(file_path));
}

}  // namespace dtpm::sim

// --- serve::FleetSpec --------------------------------------------------------
// Lives here, not under src/serve/, so the fleet parser shares the exact
// field-reading machinery (ObjectReader, L00x codes, recovery) of every
// other config document.

namespace dtpm::serve {

namespace {

// Pull the TU-local parse machinery (anonymous namespace above) into scope.
using namespace dtpm::sim;  // NOLINT(google-build-using-namespace)

util::JsonValue weight_list_json(const std::vector<FleetWeight>& entries) {
  JsonArray array;
  for (const FleetWeight& e : entries) {
    if (e.weight == 1.0) {
      array.emplace_back(e.name);
    } else {
      JsonValue entry((JsonObject()));
      entry.set("name", e.name);
      entry.set("weight", e.weight);
      array.push_back(std::move(entry));
    }
  }
  return JsonValue(std::move(array));
}

util::JsonValue range_json(const FleetRange& range) {
  JsonValue json((JsonObject()));
  json.set("lo", range.lo);
  json.set("hi", range.hi);
  return json;
}

/// Weighted-axis member: an array whose elements are either a bare name
/// (weight 1) or a {"name", "weight"} object. Name validity is the L703
/// lint's job, not the parser's, so a spec with a typo still parses into
/// a lintable value.
std::vector<FleetWeight> weight_list(ObjectReader& reader,
                                     const std::string& key) {
  std::vector<FleetWeight> out;
  const JsonValue* v = reader.get(key);
  if (v == nullptr) return out;
  if (!v->is_array()) {
    reader.sink().error(
        kCodeType, reader.member_path(key),
        "expected an array of names or {name, weight} objects, got " +
            type_of(*v));
    return out;
  }
  const JsonArray& array = v->as_array();
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string path =
        reader.member_path(key) + "[" + std::to_string(i) + "]";
    const JsonValue& element = array[i];
    if (element.is_string()) {
      out.push_back({element.as_string(), 1.0});
      continue;
    }
    if (!element.is_object()) {
      reader.sink().error(kCodeType, path,
                          "expected a name or a {name, weight} object, got " +
                              type_of(element));
      continue;
    }
    with_recovery([&] {
      ObjectReader entry(element, path, reader.sink());
      FleetWeight weight;
      entry.string("name", weight.name);
      entry.number("weight", weight.weight, 0.0,
                   std::numeric_limits<double>::max());
      entry.finish();
      if (weight.name.empty()) {
        reader.sink().error(kCodeConstraint, path,
                            "a weighted entry needs a non-empty 'name'");
        return;
      }
      out.push_back(std::move(weight));
    });
  }
  return out;
}

/// Range member: a bare number pins lo == hi; an object reads {lo, hi}.
/// An inverted range (hi < lo) parses fine -- flagging it is L701's job.
void range_member(ObjectReader& reader, const std::string& key,
                  FleetRange& out, double lo, double hi) {
  const JsonValue* v = reader.get(key);
  if (v == nullptr) return;
  const std::string path = reader.member_path(key);
  if (v->is_number()) {
    const double n = v->as_number();
    if (n < lo || n > hi) {
      reader.sink().error(kCodeRange, path,
                          "value " + util::json_write(*v, 0) + " outside [" +
                              util::json_write(JsonValue(lo), 0) + ", " +
                              util::json_write(JsonValue(hi), 0) + "]");
      return;
    }
    out.lo = n;
    out.hi = n;
    return;
  }
  if (!v->is_object()) {
    reader.sink().error(kCodeType, path,
                        "expected a number or a {lo, hi} object, got " +
                            type_of(*v));
    return;
  }
  with_recovery([&] {
    ObjectReader range(*v, path, reader.sink());
    range.number("lo", out.lo, lo, hi);
    range.number("hi", out.hi, lo, hi);
    range.finish();
  });
}

void fleet_into(FleetSpec& spec, const JsonValue& json, const std::string& path,
                DiagnosticSink& sink) {
  ObjectReader reader(json, path, sink);
  reader.integer("device_count", spec.device_count, 1,
                 std::numeric_limits<std::int64_t>::max());
  reader.integer("seed", spec.seed, 0,
                 std::numeric_limits<std::int64_t>::max());
  reader.integer("wave_size", spec.wave_size, 1, 1 << 20);
  if (const JsonValue* base = reader.get("base")) {
    spec.base = experiment_from_json(*base, path + ".base", sink);
  }
  spec.platforms = weight_list(reader, "platforms");
  spec.families = weight_list(reader, "families");
  range_member(reader, "ambient_c", spec.ambient_c, -50.0, 150.0);
  range_member(reader, "background_duty", spec.background_duty, 0.0, 1.0);
  reader.number("scenario_nominal_duration_s",
                spec.scenario_nominal_duration_s, 1e-3, 1e6);
  reader.number("scenario_intensity", spec.scenario_intensity, 1e-3, 100.0);
  reader.boolean("retain_traces", spec.retain_traces);
  reader.finish();
}

}  // namespace

util::JsonValue to_json(const FleetSpec& spec) {
  JsonValue json((JsonObject()));
  json.set("device_count", spec.device_count);
  json.set("seed", spec.seed);
  json.set("wave_size", spec.wave_size);
  json.set("base", sim::to_json(spec.base));
  if (!spec.platforms.empty()) {
    json.set("platforms", weight_list_json(spec.platforms));
  }
  if (!spec.families.empty()) {
    json.set("families", weight_list_json(spec.families));
  }
  json.set("ambient_c", range_json(spec.ambient_c));
  json.set("background_duty", range_json(spec.background_duty));
  json.set("scenario_nominal_duration_s", spec.scenario_nominal_duration_s);
  json.set("scenario_intensity", spec.scenario_intensity);
  json.set("retain_traces", spec.retain_traces);
  return json;
}

FleetSpec fleet_from_json(const util::JsonValue& json, const std::string& path,
                          util::DiagnosticSink& sink) {
  FleetSpec spec;
  with_recovery([&] { fleet_into(spec, json, path, sink); });
  return spec;
}

FleetSpec fleet_from_json(const util::JsonValue& json,
                          const std::string& path) {
  ThrowingSink sink;
  return fleet_from_json(json, path, sink);
}

FleetSpec load_fleet_spec(const std::string& file_path) {
  return fleet_from_json(util::json_parse_file(file_path));
}

}  // namespace dtpm::serve
