// Dependency-free JSON document model, parser, and writer -- the substrate
// of the declarative experiment configs (sim/config_io.hpp) and the `dtpm`
// CLI. Scope is deliberately small:
//
//  - Strict RFC 8259 JSON plus ONE ergonomic extension: `//` line comments,
//    so checked-in config files can annotate themselves. The writer never
//    emits comments.
//  - Objects preserve insertion order (configs diff cleanly) and reject
//    duplicate keys at parse time (a duplicated config field is always a
//    mistake, and silently keeping one of the two hides it).
//  - Numbers are doubles, except that non-negative integers are also held
//    exactly (every unsigned constructor and every integer literal up to
//    2^64 - 1), so 64-bit seeds round-trip digit for digit. Other integral
//    values round-trip exactly up to 2^53; the writer prints integers
//    without a decimal point. Non-finite values are unrepresentable: the
//    parser rejects overflowing literals and the writer refuses NaN/infinity.
//  - Parse errors carry 1-based line/column; nesting is capped at
//    kMaxJsonDepth so malicious inputs cannot blow the stack.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dtpm::util {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// Insertion-ordered object representation; keys are unique (parser- and
/// set()-enforced).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// Maximum nesting depth the parser accepts.
inline constexpr std::size_t kMaxJsonDepth = 200;

/// One JSON document node. Accessors throw std::runtime_error on a type
/// mismatch; config-level code (sim/config_io) performs its own checks to
/// attach `$.path` context instead.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  ///< null
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  JsonValue(int n) : JsonValue(static_cast<long long>(n)) {}
  JsonValue(long n) : JsonValue(static_cast<long long>(n)) {}
  JsonValue(long long n);  ///< exact when non-negative
  JsonValue(unsigned n) : JsonValue(static_cast<unsigned long long>(n)) {}
  JsonValue(unsigned long n) : JsonValue(static_cast<unsigned long long>(n)) {}
  JsonValue(unsigned long long n)
      : type_(Type::kNumber), exact_(true), number_(double(n)), unsigned_(n) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(JsonArray a) : type_(Type::kArray), array_(std::move(a)) {}
  JsonValue(JsonObject o);  ///< throws std::invalid_argument on duplicate keys

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_number() const;
  /// as_number, checked to be integral and inside [lo, hi].
  std::int64_t as_integer(std::int64_t lo = INT64_MIN,
                          std::int64_t hi = INT64_MAX) const;
  /// The unsigned counterpart, for 64-bit seeds past INT64_MAX.
  std::uint64_t as_unsigned(std::uint64_t lo = 0,
                            std::uint64_t hi = UINT64_MAX) const;
  /// True for a number held as an exact non-negative integer (see above).
  bool is_exact_unsigned() const { return exact_; }
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

  /// Appends or replaces an object member (null value stays a member).
  /// Throws std::runtime_error when this value is not an object.
  void set(std::string key, JsonValue value);

  /// Deep structural equality (numbers compared by ==, so 1 and 1.0 match;
  /// object member ORDER is ignored, matching JSON semantics).
  friend bool operator==(const JsonValue& a, const JsonValue& b);
  friend bool operator!=(const JsonValue& a, const JsonValue& b) {
    return !(a == b);
  }

  static const char* type_name(Type t);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  bool exact_ = false;  ///< number_ rounds unsigned_, which is exact
  double number_ = 0.0;
  std::uint64_t unsigned_ = 0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Parse failure with a 1-based source position.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t line,
                 std::size_t column);
  std::size_t line() const { return line_; }
  std::size_t column() const { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// Parses one complete document (trailing non-whitespace rejected).
JsonValue json_parse(std::string_view text);

/// Reads and parses a file; throws std::runtime_error when unreadable.
JsonValue json_parse_file(const std::string& path);

/// Serializes; `indent` > 0 pretty-prints, <= 0 is compact. Throws
/// std::invalid_argument on non-finite numbers.
std::string json_write(const JsonValue& value, int indent = 2);

/// json_write straight to a file (trailing newline included).
void json_write_file(const std::string& path, const JsonValue& value,
                     int indent = 2);

}  // namespace dtpm::util
