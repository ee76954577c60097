#include "sim/config_io.hpp"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <type_traits>
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

std::string indexed(const std::string& path, std::size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

constexpr double kHuge = std::numeric_limits<double>::max();

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

/// True when `name` is one of `valid`; otherwise reports L005 with the
/// sorted valid names and a did-you-mean.
bool known_name(const char* kind, const std::string& name,
                const std::vector<std::string>& valid, const std::string& path,
                DiagnosticSink& sink) {
  if (std::find(valid.begin(), valid.end(), name) != valid.end()) return true;
  sink.error(kCodeUnknownName, path,
             util::unknown_name_message(kind, name, valid));
  return false;
}

/// Runs a whole-value validation that throws; a failure becomes L006.
template <typename Fn>
void validate_into(DiagnosticSink& sink, const std::string& path,
                   const std::string& prefix, Fn&& validate) {
  try {
    validate();
  } catch (const std::exception& e) {
    sink.error(kCodeConstraint, path, prefix + e.what());
  }
}

/// Reads one JSON object: typed, range-checked member access plus an
/// unknown-member sweep (with a did-you-mean suggestion against the members
/// this reader consulted) that every *_from_json runs before returning.
/// Member getters report recoverable problems, leave the output untouched
/// and return false; only a non-object document aborts the subtree. Keys
/// are string literals or field-table keys, so the reader keeps pointers.
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

  std::string member_path(const char* key) const { return path_ + "." + key; }

  /// Looks a member up and marks the key as known; nullptr when absent.
  const JsonValue* get(const char* key) {
    known_.push_back(key);
    return json_.find(key);
  }

  /// get(), but a member of another JSON type is reported as L002 (wanted
  /// `expected`) and treated as absent.
  const JsonValue* get(const char* key, JsonValue::Type type,
                       const char* expected) {
    const JsonValue* v = get(key);
    if (v == nullptr || v->type() == type) return v;
    sink_.error(kCodeType, member_path(key),
                std::string("expected ") + expected + ", got " + type_of(*v));
    return nullptr;
  }

  bool number(const char* key, double& out, double lo = -kHuge,
              double hi = kHuge) {
    const JsonValue* v = get(key, JsonValue::Type::kNumber, "a number");
    return v != nullptr && in_range(key, *v, out, lo, hi);
  }

  /// Stores member `key`'s number `v` when it lies in [lo, hi] (L003
  /// otherwise).
  bool in_range(const char* key, const JsonValue& v, double& out, double lo,
                double hi) {
    const double n = v.as_number();
    if (n < lo || n > hi) {
      sink_.error(kCodeRange, member_path(key),
                  "value " + util::json_write(v, 0) + " outside [" +
                      util::json_write(JsonValue(lo), 0) + ", " +
                      util::json_write(JsonValue(hi), 0) + "]");
      return false;
    }
    out = n;
    return true;
  }

  template <typename Int>
  bool integer(const char* key, Int& out, std::uint64_t lo, std::uint64_t hi) {
    const JsonValue* v = get(key, JsonValue::Type::kNumber, "an integer");
    if (v == nullptr) return false;
    try {
      out = static_cast<Int>(v->as_unsigned(lo, hi));
      return true;
    } catch (const std::exception& e) {
      sink_.error(kCodeRange, member_path(key), e.what());
      return false;
    }
  }

  bool boolean(const char* key, bool& out) {
    const JsonValue* v = get(key, JsonValue::Type::kBool, "true or false");
    if (v != nullptr) out = v->as_bool();
    return v != nullptr;
  }

  bool string(const char* key, std::string& out) {
    const JsonValue* v = get(key, JsonValue::Type::kString, "a string");
    if (v != nullptr) out = v->as_string();
    return v != nullptr;
  }

  /// Reports members no getter consulted; catches config typos like
  /// "plant_substeps_s" with a suggestion from the consulted keys. In
  /// collecting mode every unknown member is reported, not just the first.
  void finish() const {
    for (const auto& [key, value] : json_.as_object()) {
      if (std::any_of(known_.begin(), known_.end(),
                      [&](const char* k) { return key == k; })) {
        continue;
      }
      std::string message = "unknown field '" + key + "'";
      const std::string suggestion = util::closest_match(
          key, std::vector<std::string>(known_.begin(), known_.end()));
      if (!suggestion.empty()) {
        message += ", did you mean '" + suggestion + "'?";
      }
      sink_.error(kCodeUnknownField, path_ + "." + key, message);
    }
  }

 private:
  const JsonValue& json_;
  std::string path_;
  DiagnosticSink& sink_;
  std::vector<const char*> known_;
};

/// A list member of names (T = std::string) or seeds (T = std::uint64_t):
/// absent, or an array whose bad elements are reported and skipped.
template <typename T>
std::vector<T> value_list(ObjectReader& reader, const char* key) {
  constexpr bool kSeeds = std::is_same_v<T, std::uint64_t>;
  const std::string noun = kSeeds ? "seed" : "string";
  std::vector<T> out;
  const JsonValue* v = reader.get(key);
  if (v == nullptr) return out;
  if (!v->is_array()) {
    reader.sink().error(kCodeType, reader.member_path(key),
                        "expected an array of " + noun + "s, got " +
                            type_of(*v));
    return out;
  }
  const JsonArray& array = v->as_array();
  for (std::size_t i = 0; i < array.size(); ++i) {
    if (kSeeds ? !array[i].is_number() : !array[i].is_string()) {
      reader.sink().error(kCodeType, indexed(reader.member_path(key), i),
                          "expected a " + noun + ", got " +
                              type_of(array[i]));
      continue;
    }
    if constexpr (kSeeds) {
      try {
        out.push_back(array[i].as_unsigned());
      } catch (const std::exception& e) {
        reader.sink().error(kCodeRange, indexed(reader.member_path(key), i),
                            e.what());
      }
    } else {
      out.push_back(array[i].as_string());
    }
  }
  return out;
}

/// A list member of names, each reported (L005) unless one of `valid`.
std::vector<std::string> name_list(ObjectReader& reader, const char* key,
                                   const char* kind,
                                   const std::vector<std::string>& valid) {
  std::vector<std::string> names = value_list<std::string>(reader, key);
  for (std::size_t i = 0; i < names.size(); ++i) {
    known_name(kind, names[i], valid, indexed(reader.member_path(key), i),
               reader.sink());
  }
  return names;
}

/// A JSON array of plain values (names or seeds).
template <typename T>
JsonValue array_of(const std::vector<T>& values) {
  return JsonValue(JsonArray(values.begin(), values.end()));
}

// --- Field tables ------------------------------------------------------------
// Each config struct is described once, by the table fields<T>() returns:
// one Field row per member, in wire order, giving the JSON key, the member
// (bound as a member-pointer template argument), its kind and its range.
// One generic writer (write_json) and one generic reader (read_fields, over
// an ObjectReader) walk the tables, so to_json, the L002/L003/L004
// diagnostics and the did-you-mean candidates come from the same rows;
// table order is both the JSON key order and the diagnostic order. Members
// whose meaning spans more than one field are hand-written: beside a table,
// or plugged into one as a kCustom row.

/// kFlag is a bool written only when true; kObject and kList hold nested
/// structs (through their own tables); kCustom is a hand-written codec.
enum class Kind {
  kNumber, kInteger, kBool, kFlag, kString, kEnum, kObject, kList, kCustom
};

template <typename T>
struct Field {
  const char* key;
  Kind kind;
  /// The member as JSON; null omits it.
  JsonValue (*emit)(const T&, const Field&);
  /// Reads the member when present (absent members keep their value).
  void (*parse)(T&, const Field&, ObjectReader&);
  double lo = 0.0;  ///< kNumber range (or a kCustom codec's)
  double hi = 0.0;
  std::uint64_t min = 0;  ///< kInteger range
  std::uint64_t max = 0;
  const char* noun = nullptr;  ///< kList: the elements, in type errors
};

template <typename T>
using Table = std::vector<Field<T>>;

/// The rows of T's table; one specialization per struct, defined below.
template <typename T>
Table<T> make_fields();

/// T's table, built once.
template <typename T>
const Table<T>& fields() {
  static const Table<T> table = make_fields<T>();
  return table;
}

/// The names of enum E, with the enum's own name for L005 messages.
template <typename E>
struct EnumNames {
  const char* kind;
  std::vector<std::pair<E, std::string>> entries;
};
template <typename E>
const EnumNames<E>& enum_names();

/// A list element of type T that parsed but is unusable is reported and
/// dropped; specialized where that can happen.
template <typename T>
bool keep(const T&, const std::string&, DiagnosticSink&) {
  return true;
}

/// `object`'s members appended to `json` in table order.
template <typename T>
JsonValue write_json(const T& object,
                     JsonValue json = JsonValue(JsonObject())) {
  for (const Field<T>& field : fields<T>()) {
    JsonValue value = field.emit(object, field);
    if (!value.is_null()) json.set(field.key, std::move(value));
  }
  return json;
}

template <typename T>
JsonValue write_json(const std::vector<T>& objects) {
  JsonArray array;
  array.reserve(objects.size());
  for (const T& object : objects) array.push_back(write_json(object));
  return JsonValue(std::move(array));
}

template <typename T>
void read_fields(T& object, ObjectReader& reader) {
  for (const Field<T>& field : fields<T>()) field.parse(object, field, reader);
}

/// One whole object: its table's members, then the unknown-member sweep.
template <typename T>
void read_object(T& object, const JsonValue& json, std::string path,
                 DiagnosticSink& sink) {
  ObjectReader reader(json, std::move(path), sink);
  read_fields(object, reader);
  reader.finish();
}

/// Parses each element of `array`, recovering per element; `accept` may
/// report and drop an element that parsed.
template <typename T, typename Accept>
void read_elements(const JsonArray& array, const std::string& path,
                   DiagnosticSink& sink, std::vector<T>& out,
                   Accept&& accept) {
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string element_path = indexed(path, i);
    with_recovery([&] {
      T element;
      read_object(element, array[i], element_path, sink);
      if (accept(element, element_path)) out.push_back(std::move(element));
    });
  }
}

template <typename C, typename V>
C class_of(V C::*);
template <typename C, typename V>
V value_of(V C::*);
template <auto M>
using ClassOf = decltype(class_of(M));
template <auto M>
using ValueOf = decltype(value_of(M));
template <auto M>
using FieldOf = Field<ClassOf<M>>;

template <typename V>
constexpr bool kIsList = false;
template <typename T>
constexpr bool kIsList<std::vector<T>> = true;

/// The kind a member type implies (kFlag and kCustom are chosen by rows).
template <typename V>
constexpr Kind kind_of() {
  if constexpr (std::is_same_v<V, double>) return Kind::kNumber;
  if constexpr (std::is_same_v<V, bool>) return Kind::kBool;
  if constexpr (std::is_same_v<V, std::string>) return Kind::kString;
  if constexpr (std::is_integral_v<V>) return Kind::kInteger;
  if constexpr (std::is_enum_v<V>) return Kind::kEnum;
  if constexpr (kIsList<V>) return Kind::kList;
  return Kind::kObject;
}

/// The codec of every kind but kCustom, dispatched on the member's type.
template <auto M>
JsonValue emit(const ClassOf<M>& object, const FieldOf<M>& f) {
  using V = ValueOf<M>;
  constexpr Kind kKind = kind_of<V>();
  const V& value = object.*M;
  if constexpr (kKind == Kind::kEnum) {
    for (const auto& [entry, name] : enum_names<V>().entries) {
      if (entry == value) return JsonValue(name);
    }
    return JsonValue("?");
  } else if constexpr (kKind == Kind::kObject || kKind == Kind::kList) {
    return write_json(value);
  } else if constexpr (kKind == Kind::kBool) {
    return value || f.kind != Kind::kFlag ? JsonValue(value) : JsonValue();
  } else {
    return JsonValue(value);
  }
}

template <auto M>
void parse(ClassOf<M>& object, const FieldOf<M>& f, ObjectReader& reader) {
  using V = ValueOf<M>;
  constexpr Kind kKind = kind_of<V>();
  V& value = object.*M;
  if constexpr (kKind == Kind::kNumber) {
    reader.number(f.key, value, f.lo, f.hi);
  } else if constexpr (kKind == Kind::kBool) {
    reader.boolean(f.key, value);
  } else if constexpr (kKind == Kind::kString) {
    reader.string(f.key, value);
  } else if constexpr (kKind == Kind::kInteger) {
    reader.integer(f.key, value, f.min, f.max);
  } else if constexpr (kKind == Kind::kEnum) {
    std::string name;
    if (!reader.string(f.key, name)) return;
    for (const auto& [entry, entry_name] : enum_names<V>().entries) {
      if (entry_name == name) {
        value = entry;
        return;
      }
    }
    std::vector<std::string> valid;
    for (const auto& entry : enum_names<V>().entries) {
      valid.push_back(entry.second);
    }
    known_name(enum_names<V>().kind, name, valid, reader.member_path(f.key),
               reader.sink());
  } else if (const JsonValue* v = reader.get(f.key)) {
    DiagnosticSink& sink = reader.sink();
    if constexpr (kKind == Kind::kObject) {
      with_recovery(
          [&] { read_object(value, *v, reader.member_path(f.key), sink); });
    } else if (!v->is_array()) {
      sink.error(kCodeType, reader.member_path(f.key),
                 std::string("expected an array of ") + f.noun + ", got " +
                     type_of(*v));
    } else {
      value.clear();
      read_elements(v->as_array(), reader.member_path(f.key), sink, value,
                    [&](const auto& element, const std::string& path) {
                      return keep(element, path, sink);
                    });
    }
  }
}

// Row factories, one per kind; the kind must match the member's type.

template <auto M, Kind K>
FieldOf<M> row(const char* key) {
  constexpr Kind kNatural = kind_of<ValueOf<M>>();
  static_assert(K == kNatural || (K == Kind::kFlag && kNatural == Kind::kBool));
  return {key, K, emit<M>, parse<M>};
}

template <auto M>
FieldOf<M> number(const char* key, double lo, double hi) {
  FieldOf<M> f = row<M, Kind::kNumber>(key);
  f.lo = lo;
  f.hi = hi;
  return f;
}

template <auto M>
FieldOf<M> integer(const char* key, std::uint64_t min, std::uint64_t max) {
  FieldOf<M> f = row<M, Kind::kInteger>(key);
  f.min = min;
  f.max = max;
  return f;
}

template <auto M>
FieldOf<M> list(const char* key, const char* noun) {
  FieldOf<M> f = row<M, Kind::kList>(key);
  f.noun = noun;
  return f;
}

template <auto M>
FieldOf<M> boolean(const char* key) { return row<M, Kind::kBool>(key); }
template <auto M>
FieldOf<M> flag(const char* key) { return row<M, Kind::kFlag>(key); }
template <auto M>
FieldOf<M> text(const char* key) { return row<M, Kind::kString>(key); }
template <auto M>
FieldOf<M> enumeration(const char* key) { return row<M, Kind::kEnum>(key); }
template <auto M>
FieldOf<M> object(const char* key) { return row<M, Kind::kObject>(key); }

template <typename T>
Field<T> custom(const char* key, JsonValue (*emit)(const T&, const Field<T>&),
                void (*parse)(T&, const Field<T>&, ObjectReader&),
                double lo = 0.0, double hi = 0.0) {
  return {key, Kind::kCustom, emit, parse, lo, hi};
}

// --- The tables --------------------------------------------------------------

template <typename E>
EnumNames<E> names_by_to_string(const char* kind,
                                std::initializer_list<E> all) {
  EnumNames<E> names{kind, {}};
  for (E e : all) names.entries.emplace_back(e, to_string(e));
  return names;
}

template <>
const EnumNames<core::BudgetRowPolicy>& enum_names() {
  using core::BudgetRowPolicy;
  static const EnumNames<BudgetRowPolicy> names{
      "row policy",
      {{BudgetRowPolicy::kHottestCore, "hottest-core"},
       {BudgetRowPolicy::kAllHotspots, "all-hotspots"}}};
  return names;
}

template <>
const EnumNames<workload::Category>& enum_names() {
  using workload::Category;
  static const EnumNames<Category> names = names_by_to_string(
      "category", {Category::kSecurity, Category::kNetwork,
                   Category::kComputational, Category::kTelecomm,
                   Category::kConsumer, Category::kGames, Category::kVideo});
  return names;
}

template <>
const EnumNames<workload::PowerClass>& enum_names() {
  using workload::PowerClass;
  static const EnumNames<PowerClass> names = names_by_to_string(
      "power class",
      {PowerClass::kLow, PowerClass::kMedium, PowerClass::kHigh});
  return names;
}

template <>
const EnumNames<Engine>& enum_names() {
  static const EnumNames<Engine> names = names_by_to_string(
      "engine", {Engine::kReferenceRk4, Engine::kPropagator});
  return names;
}

template <>
Table<core::DtpmParams> make_fields() {
  using P = core::DtpmParams;
  return {
      number<&P::t_max_c>("t_max_c", 0.0, 150.0),
      integer<&P::horizon_steps>("horizon_steps", 1, 1000),
      number<&P::guard_band_c>("guard_band_c", 0.0, 50.0),
      number<&P::delta_hotspot_c>("delta_hotspot_c", 0.0, 50.0),
      integer<&P::min_big_cores>("min_big_cores", 1, soc::kBigCoreCount),
      number<&P::recovery_margin_c>("recovery_margin_c", 0.0, 50.0),
      number<&P::restriction_dwell_s>("restriction_dwell_s", 0.0, 3600.0),
      enumeration<&P::row_policy>("row_policy"),
  };
}

template <>
Table<workload::Phase> make_fields() {
  using P = workload::Phase;
  return {
      number<&P::work_fraction>("work_fraction", 0.0, 1.0),
      number<&P::cpu_activity>("cpu_activity", 0.0, 1.0),
      number<&P::mem_intensity>("mem_intensity", 0.0, 1.0),
      number<&P::gpu_load>("gpu_load", 0.0, 1.0),
      integer<&P::threads>("threads", 1, 64),
      number<&P::duty>("duty", 0.0, 1.0),
  };
}

template <>
Table<workload::Benchmark> make_fields() {
  using B = workload::Benchmark;
  return {
      text<&B::name>("name"),
      enumeration<&B::category>("category"),
      enumeration<&B::power_class>("power_class"),
      list<&B::phases>("phases", "phase objects"),
      number<&B::total_work_units>("total_work_units", 0.0, kHuge),
      number<&B::cpu_cycles_per_unit>("cpu_cycles_per_unit", 0.0, kHuge),
      number<&B::mem_seconds_per_unit>("mem_seconds_per_unit", 0.0, kHuge),
      number<&B::gpu_cycles_per_unit>("gpu_cycles_per_unit", 0.0, kHuge),
      boolean<&B::multithreaded>("multithreaded"),
  };
}

template <>
Table<workload::ScenarioParams> make_fields() {
  using P = workload::ScenarioParams;
  return {
      number<&P::nominal_duration_s>("nominal_duration_s", 1.0, 1e6),
      number<&P::intensity>("intensity", 0.0, 10.0),
      number<&P::thermal_time_constant_s>("thermal_time_constant_s", 0.1,
                                          1e4),
  };
}

template <>
Table<power::LeakageParams> make_fields() {
  using P = power::LeakageParams;
  return {
      number<&P::c1>("c1", 0.0, 1.0),
      number<&P::c2_k>("c2_k", -1e5, 0.0),
      number<&P::i_gate_a>("i_gate_a", 0.0, 10.0),
      number<&P::v_ref>("v_ref", 1e-3, 10.0),
      number<&P::dibl_exponent>("dibl_exponent", 0.0, 10.0),
  };
}

template <>
Table<power::Opp> make_fields() {
  return {
      number<&power::Opp::frequency_hz>("frequency_hz", 1.0, 1e12),
      number<&power::Opp::voltage_v>("voltage_v", 1e-3, 10.0),
  };
}

/// An operating point without a frequency is unusable.
template <>
bool keep(const power::Opp& opp, const std::string& path,
          DiagnosticSink& sink) {
  if (opp.frequency_hz > 0.0) return true;
  sink.error(kCodeConstraint, path,
             "operating point needs a positive frequency_hz");
  return false;
}

template <>
Table<thermal::ThermalNode> make_fields() {
  using N = thermal::ThermalNode;
  return {
      text<&N::name>("name"),
      number<&N::capacitance_j_per_k>("capacitance_j_per_k", 1e-9, 1e9),
      number<&N::initial_temp_c>("initial_temp_c", -273.15, 1000.0),
      flag<&N::is_boundary>("boundary"),
  };
}

template <>
Table<thermal::FloorplanEdgeSpec> make_fields() {
  using E = thermal::FloorplanEdgeSpec;
  return {
      text<&E::node_a>("a"),
      text<&E::node_b>("b"),
      number<&E::conductance_w_per_k>("conductance_w_per_k", 1e-12, 1e9),
      flag<&E::fan_modulated>("fan"),
  };
}

template <>
Table<soc::PlantPowerParams> make_fields() {
  using P = soc::PlantPowerParams;
  return {
      object<&P::big_leakage>("big_leakage"),
      object<&P::little_leakage>("little_leakage"),
      object<&P::gpu_leakage>("gpu_leakage"),
      object<&P::mem_leakage>("mem_leakage"),
      number<&P::big_core_alpha_c_max>("big_core_alpha_c_max", 0.0, 1.0),
      number<&P::little_core_alpha_c_max>("little_core_alpha_c_max", 0.0, 1.0),
      number<&P::gpu_alpha_c_max>("gpu_alpha_c_max", 0.0, 1.0),
      number<&P::big_uncore_alpha_c>("big_uncore_alpha_c", 0.0, 1.0),
      number<&P::little_uncore_alpha_c>("little_uncore_alpha_c", 0.0, 1.0),
      number<&P::big_idle_activity>("big_idle_activity", 0.0, 1.0),
      number<&P::little_idle_activity>("little_idle_activity", 0.0, 1.0),
      number<&P::gpu_idle_util>("gpu_idle_util", 0.0, 1.0),
      number<&P::mem_bandwidth_cap>("mem_bandwidth_cap", 1e-3, 1e3),
      number<&P::offline_core_leakage_fraction>(
          "offline_core_leakage_fraction", 0.0, 1.0),
      number<&P::inactive_cluster_leakage_fraction>(
          "inactive_cluster_leakage_fraction", 0.0, 1.0),
      number<&P::mem_dynamic_max_w>("mem_dynamic_max_w", 0.0, 100.0),
      number<&P::mem_base_w>("mem_base_w", 0.0, 100.0),
      number<&P::mem_gpu_traffic_weight>("mem_gpu_traffic_weight", 0.0, 10.0),
      number<&P::mem_nominal_voltage_v>("mem_nominal_voltage_v", 1e-3, 10.0),
      number<&P::mem_nominal_frequency_hz>("mem_nominal_frequency_hz", 1.0,
                                           1e12),
  };
}

template <>
Table<soc::PerfParams> make_fields() {
  using P = soc::PerfParams;
  return {
      number<&P::big_ipc_scale>("big_ipc_scale", 1e-3, 100.0),
      number<&P::little_ipc_scale>("little_ipc_scale", 1e-3, 100.0),
      number<&P::cluster_switch_stall_s>("cluster_switch_stall_s", 0.0, 10.0),
  };
}

template <>
Table<thermal::FanParams> make_fields() {
  using P = thermal::FanParams;
  return {
      number<&P::conductance_off>("conductance_off", 0.0, 1e6),
      number<&P::conductance_low>("conductance_low", 0.0, 1e6),
      number<&P::conductance_half>("conductance_half", 0.0, 1e6),
      number<&P::conductance_full>("conductance_full", 0.0, 1e6),
      number<&P::power_off>("power_off", 0.0, 1e3),
      number<&P::power_low>("power_low", 0.0, 1e3),
      number<&P::power_half>("power_half", 0.0, 1e3),
      number<&P::power_full>("power_full", 0.0, 1e3),
  };
}

template <>
Table<thermal::TempSensorParams> make_fields() {
  using P = thermal::TempSensorParams;
  return {
      number<&P::quantization_c>("quantization_c", 0.0, 100.0),
      number<&P::noise_stddev_c>("noise_stddev_c", 0.0, 100.0),
  };
}

template <>
Table<power::PowerSensorParams> make_fields() {
  using P = power::PowerSensorParams;
  return {
      number<&P::noise_fraction>("noise_fraction", 0.0, 1.0),
      number<&P::quantization_w>("quantization_w", 0.0, 100.0),
  };
}

template <>
Table<power::PlatformLoadParams> make_fields() {
  using P = power::PlatformLoadParams;
  return {
      number<&P::board_base_w>("board_base_w", 0.0, 1e3),
      number<&P::display_w>("display_w", 0.0, 1e3),
  };
}

template <>
Table<workload::BackgroundParams> make_fields() {
  using P = workload::BackgroundParams;
  return {
      integer<&P::thread_count>("thread_count", 0, 64),
      number<&P::base_duty>("base_duty", 0.0, 1.0),
      number<&P::duty_jitter>("duty_jitter", 0.0, 1.0),
      number<&P::spike_probability>("spike_probability", 0.0, 1.0),
      number<&P::spike_duty>("spike_duty", 0.0, 1.0),
      number<&P::cpu_activity>("cpu_activity", 0.0, 1.0),
      number<&P::mem_intensity>("mem_intensity", 0.0, 1.0),
      boolean<&P::heavy_load>("heavy_load"),
      integer<&P::heavy_threads>("heavy_threads", 0, 64),
      number<&P::heavy_activity>("heavy_activity", 0.0, 1.0),
      number<&P::heavy_mem_intensity>("heavy_mem_intensity", 0.0, 1.0),
  };
}

/// Only the members from "dtpm" on: the ones before it are hand-written
/// (see to_json(const ExperimentConfig&) and experiment_into).
template <>
Table<ExperimentConfig> make_fields() {
  using C = ExperimentConfig;
  return {
      object<&C::dtpm>("dtpm"),
      enumeration<&C::engine>("engine"),
      number<&C::control_interval_s>("control_interval_s", 1e-4, 60.0),
      number<&C::plant_substep_s>("plant_substep_s", 1e-5, 60.0),
      number<&C::warmup_s>("warmup_s", 0.0, 1e6),
      number<&C::warmup_activity>("warmup_activity", 0.0, 1.0),
      number<&C::max_sim_time_s>("max_sim_time_s", 0.0, 1e9),
      integer<&C::seed>("seed", 0, UINT64_MAX),
      boolean<&C::record_trace>("record_trace"),
      boolean<&C::observe_predictions>("observe_predictions"),
      integer<&C::observe_horizon_steps>("observe_horizon_steps", 1, 100000),
  };
}

}  // namespace

// --- DtpmParams --------------------------------------------------------------

JsonValue to_json(const core::DtpmParams& params) {
  return write_json(params);
}

core::DtpmParams dtpm_params_from_json(const JsonValue& json,
                                       const std::string& path,
                                       const core::DtpmParams& base,
                                       DiagnosticSink& sink) {
  core::DtpmParams params = base;
  with_recovery([&] { read_object(params, json, path, sink); });
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
  return write_json(benchmark);
}

workload::Benchmark benchmark_from_json(const JsonValue& json,
                                        const std::string& path,
                                        DiagnosticSink& sink) {
  workload::Benchmark benchmark;
  with_recovery([&] {
    read_object(benchmark, json, path, sink);
    validate_into(sink, path, "invalid benchmark: ",
                  [&] { benchmark.validate(); });
  });
  return benchmark;
}

workload::Benchmark benchmark_from_json(const JsonValue& json,
                                        const std::string& path) {
  ThrowingSink sink;
  return benchmark_from_json(json, path, sink);
}

// --- workload::ScenarioParams ------------------------------------------------

JsonValue to_json(const workload::ScenarioParams& params) {
  return write_json(params);
}

workload::ScenarioParams scenario_params_from_json(const JsonValue& json,
                                                   const std::string& path,
                                                   DiagnosticSink& sink) {
  workload::ScenarioParams params;
  with_recovery([&] { read_object(params, json, path, sink); });
  return params;
}

workload::ScenarioParams scenario_params_from_json(const JsonValue& json,
                                                   const std::string& path) {
  ThrowingSink sink;
  return scenario_params_from_json(json, path, sink);
}

// --- sim::PlatformDescriptor -------------------------------------------------

namespace {

/// A required array of `elements`: missing (reported as `missing`) or not
/// an array aborts the floorplan.
const JsonArray& required_array(ObjectReader& reader, const char* key,
                                const char* missing, const char* elements) {
  const JsonValue* v = reader.get(key);
  if (v == nullptr) {
    fail(reader.sink(), kCodeConstraint, reader.member_path(key), missing);
  }
  if (!v->is_array()) {
    fail(reader.sink(), kCodeType, reader.member_path(key),
         std::string("expected an array of ") + elements + ", got " +
             type_of(*v));
  }
  return v->as_array();
}

void floorplan_into(thermal::FloorplanSpec& spec, const JsonValue& json,
                    const std::string& path, DiagnosticSink& sink) {
  const std::size_t errors_before = sink.error_count();
  ObjectReader reader(json, path, sink);

  read_elements(required_array(reader, "nodes",
                               "a floorplan requires a 'nodes' array",
                               "node objects"),
                path + ".nodes", sink, spec.nodes,
                [&](const thermal::ThermalNode& node,
                    const std::string& node_path) {
                  if (!node.name.empty()) return true;
                  sink.error(kCodeConstraint, node_path,
                             "node needs a non-empty 'name'");
                  return false;
                });

  // Known node names, for reference checks that pin the exact member --
  // "$.platform.floorplan.edges[3].a: unknown node 'big9'" beats a
  // whole-floorplan error.
  std::vector<std::string> node_names;
  for (const thermal::ThermalNode& node : spec.nodes) {
    node_names.push_back(node.name);
  }
  read_elements(required_array(reader, "edges",
                               "a floorplan requires an 'edges' array",
                               "edge objects"),
                path + ".edges", sink, spec.edges,
                [&](const thermal::FloorplanEdgeSpec& edge,
                    const std::string& edge_path) {
                  if (edge.node_a.empty() || edge.node_b.empty()) {
                    sink.error(kCodeConstraint, edge_path,
                               "edge needs node names 'a' and 'b'");
                    return false;
                  }
                  known_name("node", edge.node_a, node_names,
                             edge_path + ".a", sink);
                  known_name("node", edge.node_b, node_names,
                             edge_path + ".b", sink);
                  return true;
                });

  spec.core_nodes = name_list(reader, "core_nodes", "node", node_names);
  for (auto [key, member] : {std::pair{"little_node", &spec.little_node},
                             std::pair{"gpu_node", &spec.gpu_node},
                             std::pair{"mem_node", &spec.mem_node}}) {
    if (reader.string(key, *member) && !member->empty()) {
      known_name("node", *member, node_names, reader.member_path(key), sink);
    }
  }
  spec.sensor_nodes = name_list(reader, "sensor_nodes", "node", node_names);
  reader.finish();

  // Whole-spec validation only when the members parsed clean: re-checking a
  // knowingly partial spec would bury the real findings under follow-ons.
  if (sink.error_count() != errors_before) return;
  validate_into(sink, path, "",
                [&] { thermal::validate_floorplan_spec(spec); });
}

JsonValue emit_floorplan(const PlatformDescriptor& d,
                         const Field<PlatformDescriptor>&) {
  const thermal::FloorplanSpec& spec = d.floorplan;
  JsonValue json((JsonObject()));
  json.set("nodes", write_json(spec.nodes));
  json.set("edges", write_json(spec.edges));
  json.set("core_nodes", array_of(spec.core_nodes));
  json.set("little_node", spec.little_node);
  json.set("gpu_node", spec.gpu_node);
  json.set("mem_node", spec.mem_node);
  json.set("sensor_nodes", array_of(spec.sensor_nodes));
  return json;
}

/// A present floorplan replaces the default one whole.
void parse_floorplan(PlatformDescriptor& d, const Field<PlatformDescriptor>& f,
                     ObjectReader& reader) {
  const JsonValue* v = reader.get(f.key);
  if (v == nullptr) return;
  d.floorplan = {};
  with_recovery([&] {
    floorplan_into(d.floorplan, *v, reader.member_path(f.key), reader.sink());
  });
}

template <>
Table<PlatformDescriptor> make_fields() {
  using D = PlatformDescriptor;
  return {
      text<&D::name>("name"),
      text<&D::description>("description"),
      custom<D>("floorplan", emit_floorplan, parse_floorplan),
      integer<&D::big_cores>("big_cores", 1, 64),
      integer<&D::little_cores>("little_cores", 0, 64),
      list<&D::big_opps>("big_opps", "operating points"),
      list<&D::little_opps>("little_opps", "operating points"),
      list<&D::gpu_opps>("gpu_opps", "operating points"),
      object<&D::power>("power"),
      object<&D::perf>("perf"),
      object<&D::fan>("fan"),
      object<&D::temp_sensor>("temp_sensor"),
      object<&D::power_sensor>("power_sensor"),
      object<&D::platform_load>("platform_load"),
      number<&D::default_t_max_c>("default_t_max_c", 0.0, 150.0),
      number<&D::runaway_abort_temp_c>("runaway_abort_temp_c", 0.0, 500.0),
  };
}

}  // namespace

JsonValue to_json(const PlatformDescriptor& d) {
  return write_json(d);
}

PlatformDescriptor platform_from_json(const JsonValue& json,
                                      const std::string& path,
                                      DiagnosticSink& sink) {
  PlatformDescriptor d;  // defaults: the Odroid plant
  const std::size_t errors_before = sink.error_count();
  with_recovery([&] {
    read_object(d, json, path, sink);
    // Descriptor-level validation only on a member-clean parse (see
    // floorplan_into).
    if (sink.error_count() != errors_before) return;
    validate_into(sink, path, "invalid platform: ", [&] { d.validate(); });
  });
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
    json.set("background", write_json(*config.background));
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
  return write_json(config, std::move(json));
}

namespace {

void experiment_into(ExperimentConfig& config, const JsonValue& json,
                     const std::string& path, DiagnosticSink& sink) {
  ObjectReader reader(json, path, sink);

  const bool benchmark_named = reader.string("benchmark", config.benchmark);
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
        scenario_reader.integer("seed", seed, 0, UINT64_MAX);
        workload::ScenarioParams params;
        if (const JsonValue* p = scenario_reader.get("params")) {
          params = scenario_params_from_json(*p, scenario_path + ".params",
                                             sink);
        }
        const ScenarioCatalog catalog = ScenarioCatalog::standard(params);
        const std::string& name = family->as_string();
        if (!known_name("scenario family", name, catalog.family_names(),
                        scenario_path + ".family", sink)) {
          throw ParseAbort{};
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
    known_name("benchmark", config.benchmark, workload::all_benchmark_names(),
               path + ".benchmark", sink);
  }

  std::string policy;
  if (reader.string("policy", policy) && !policy.empty() &&
      known_name("policy", policy,
                 governors::PolicyRegistry::instance().names(),
                 path + ".policy", sink)) {
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
  if (reader.string("governor", governor) && !governor.empty() &&
      known_name("governor", governor,
                 governors::GovernorRegistry::instance().names(),
                 path + ".governor", sink)) {
    config.governor_name = governor;
  }

  if (const JsonValue* background = reader.get("background")) {
    with_recovery([&] {
      workload::BackgroundParams params =
          config.background.value_or(workload::BackgroundParams{});
      read_object(params, *background, path + ".background", sink);
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
      if (known_name("platform", name, registry.names(), platform_path,
                     sink)) {
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

  read_fields(config, reader);
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

DocumentKind classify_document(const JsonValue& json) {
  if (!json.is_object()) return DocumentKind::kExperiment;
  // Fleet first: a fleet spec also has "base", which marks a sweep.
  if (json.find("device_count") != nullptr) return DocumentKind::kFleet;
  // An experiment uses the singular forms ("benchmark", "platform",
  // "policy"), so any plural axis or a "base"/"scenarios" block marks a
  // sweep grid.
  for (const char* member : {"base", "benchmarks", "platforms", "policies",
                             "seeds", "dtpm_grid", "scenarios"}) {
    if (json.find(member) != nullptr) return DocumentKind::kSweep;
  }
  if (json.find("floorplan") != nullptr) return DocumentKind::kPlatform;
  return DocumentKind::kExperiment;
}

ExperimentConfig load_experiment_config(const std::string& file_path) {
  const JsonValue json = util::json_parse_file(file_path);
  switch (classify_document(json)) {
    case DocumentKind::kFleet:
      throw ConfigError("$",
                        "this looks like a fleet spec (has 'device_count'); "
                        "run it with `dtpm serve` instead");
    case DocumentKind::kSweep:
      throw ConfigError("$",
                        "this looks like a sweep grid (has 'base', an axis "
                        "or 'scenarios'); run it with `dtpm sweep` instead");
    case DocumentKind::kPlatform:
      throw ConfigError("$",
                        "this looks like a platform descriptor (has "
                        "'floorplan'); select it through an experiment's "
                        "'platform' member instead");
    case DocumentKind::kExperiment:
      break;
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
  // Axes are written only when set: an empty axis inherits from the base.
  const auto axis = [](JsonValue& json, const char* key, const auto& values) {
    if (!values.empty()) json.set(key, array_of(values));
  };
  JsonValue json((JsonObject()));
  json.set("base", to_json(spec.base));
  axis(json, "benchmarks", spec.benchmarks);
  axis(json, "platforms", spec.platforms);
  axis(json, "policies", spec.policies);
  axis(json, "seeds", spec.seeds);
  if (!spec.dtpm_grid.empty()) {
    json.set("dtpm_grid", write_json(spec.dtpm_grid));
  }
  if (spec.has_scenarios) {
    JsonValue scenarios((JsonObject()));
    axis(scenarios, "families", spec.families);
    axis(scenarios, "seeds", spec.scenario_seeds);
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

  spec.benchmarks = name_list(reader, "benchmarks", "benchmark",
                              workload::all_benchmark_names());
  spec.platforms = name_list(reader, "platforms", "platform",
                             PlatformRegistry::instance().names());
  spec.policies = name_list(reader, "policies", "policy",
                            governors::PolicyRegistry::instance().names());
  spec.seeds = value_list<std::uint64_t>(reader, "seeds");

  if (const JsonValue* grid = reader.get("dtpm_grid")) {
    if (!grid->is_array()) {
      sink.error(kCodeType, path + ".dtpm_grid",
                 "expected an array of DTPM parameter objects, got " +
                     type_of(*grid));
    } else {
      const JsonArray& array = grid->as_array();
      for (std::size_t i = 0; i < array.size(); ++i) {
        spec.dtpm_grid.push_back(dtpm_params_from_json(
            array[i], indexed(path + ".dtpm_grid", i), core::DtpmParams{},
            sink));
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
      spec.families = name_list(
          scenario_reader, "families", "scenario family",
          ScenarioCatalog::standard(spec.scenario_params).family_names());
      spec.scenario_seeds = value_list<std::uint64_t>(scenario_reader, "seeds");
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

// --- serve::FleetSpec --------------------------------------------------------
// Parsed here, not under src/serve/, so the fleet parser shares the exact
// field-table machinery (ObjectReader, L00x codes, recovery) of every other
// config document.

namespace {

using serve::FleetRange;
using serve::FleetSpec;
using serve::FleetWeight;

JsonValue emit_base(const FleetSpec& spec, const Field<FleetSpec>&) {
  return to_json(spec.base);
}

void parse_base(FleetSpec& spec, const Field<FleetSpec>& f,
                ObjectReader& reader) {
  if (const JsonValue* base = reader.get(f.key)) {
    spec.base =
        experiment_from_json(*base, reader.member_path(f.key), reader.sink());
  }
}

template <>
Table<FleetWeight> make_fields() {
  return {
      text<&FleetWeight::name>("name"),
      number<&FleetWeight::weight>("weight", 0.0, kHuge),
  };
}

/// Weighted axis: an array whose elements are a bare name (weight 1) or a
/// {"name", "weight"} object; omitted when empty. Name validity is the L703
/// lint's job, not the parser's, so a spec with a typo still parses into a
/// lintable value.
template <auto M>
JsonValue emit_weights(const FleetSpec& spec, const Field<FleetSpec>&) {
  if ((spec.*M).empty()) return JsonValue();
  JsonArray array;
  for (const FleetWeight& e : spec.*M) {
    array.push_back(e.weight == 1.0 ? JsonValue(e.name) : write_json(e));
  }
  return JsonValue(std::move(array));
}

template <auto M>
void parse_weights(FleetSpec& spec, const Field<FleetSpec>& f,
                   ObjectReader& reader) {
  std::vector<FleetWeight>& out = spec.*M;
  out.clear();
  const JsonValue* v = reader.get(f.key);
  if (v == nullptr) return;
  DiagnosticSink& sink = reader.sink();
  if (!v->is_array()) {
    sink.error(kCodeType, reader.member_path(f.key),
               "expected an array of names or {name, weight} objects, got " +
                   type_of(*v));
    return;
  }
  const JsonArray& array = v->as_array();
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string path = indexed(reader.member_path(f.key), i);
    if (array[i].is_string()) {
      out.push_back({array[i].as_string(), 1.0});
    } else if (!array[i].is_object()) {
      sink.error(kCodeType, path,
                 "expected a name or a {name, weight} object, got " +
                     type_of(array[i]));
    } else {
      FleetWeight weight;
      read_object(weight, array[i], path, sink);
      if (weight.name.empty()) {
        sink.error(kCodeConstraint, path,
                   "a weighted entry needs a non-empty 'name'");
      } else {
        out.push_back(std::move(weight));
      }
    }
  }
}

/// Range: a bare number pins lo == hi; an object reads {lo, hi}, each
/// within the row's [lo, hi]. An inverted range (hi < lo) parses fine --
/// flagging it is L701's job.
template <auto M>
JsonValue emit_range(const FleetSpec& spec, const Field<FleetSpec>&) {
  JsonValue json((JsonObject()));
  json.set("lo", (spec.*M).lo);
  json.set("hi", (spec.*M).hi);
  return json;
}

template <auto M>
void parse_range(FleetSpec& spec, const Field<FleetSpec>& f,
                 ObjectReader& reader) {
  FleetRange& out = spec.*M;
  const JsonValue* v = reader.get(f.key);
  if (v == nullptr) return;
  if (v->is_number()) {
    if (reader.in_range(f.key, *v, out.lo, f.lo, f.hi)) out.hi = out.lo;
  } else if (!v->is_object()) {
    reader.sink().error(kCodeType, reader.member_path(f.key),
                        "expected a number or a {lo, hi} object, got " +
                            type_of(*v));
  } else {
    with_recovery([&] {
      ObjectReader range(*v, reader.member_path(f.key), reader.sink());
      range.number("lo", out.lo, f.lo, f.hi);
      range.number("hi", out.hi, f.lo, f.hi);
      range.finish();
    });
  }
}

template <>
Table<FleetSpec> make_fields() {
  using F = FleetSpec;
  return {
      integer<&F::device_count>("device_count", 1, INT64_MAX),
      integer<&F::seed>("seed", 0, UINT64_MAX),
      integer<&F::wave_size>("wave_size", 1, 1 << 20),
      custom<F>("base", emit_base, parse_base),
      custom<F>("platforms", emit_weights<&F::platforms>,
                parse_weights<&F::platforms>),
      custom<F>("families", emit_weights<&F::families>,
                parse_weights<&F::families>),
      custom<F>("ambient_c", emit_range<&F::ambient_c>,
                parse_range<&F::ambient_c>, -50.0, 150.0),
      custom<F>("background_duty", emit_range<&F::background_duty>,
                parse_range<&F::background_duty>, 0.0, 1.0),
      number<&F::scenario_nominal_duration_s>("scenario_nominal_duration_s",
                                              1e-3, 1e6),
      number<&F::scenario_intensity>("scenario_intensity", 1e-3, 100.0),
      boolean<&F::retain_traces>("retain_traces"),
  };
}

}  // namespace

}  // namespace dtpm::sim

namespace dtpm::serve {

// The parse machinery lives in sim's anonymous namespace above.
using namespace dtpm::sim;  // NOLINT(google-build-using-namespace)

util::JsonValue to_json(const FleetSpec& spec) { return write_json(spec); }

FleetSpec fleet_from_json(const util::JsonValue& json, const std::string& path,
                          util::DiagnosticSink& sink) {
  FleetSpec spec;
  with_recovery([&] { read_object(spec, json, path, sink); });
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
