#include "util/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dtpm::util {

namespace {

[[noreturn]] void type_error(const char* wanted, JsonValue::Type got) {
  throw std::runtime_error(std::string("JSON: expected ") + wanted +
                           ", got " + JsonValue::type_name(got));
}

}  // namespace

const char* JsonValue::type_name(Type t) {
  switch (t) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return "bool";
    case Type::kNumber:
      return "number";
    case Type::kString:
      return "string";
    case Type::kArray:
      return "array";
    case Type::kObject:
      return "object";
  }
  return "?";
}

JsonValue::JsonValue(JsonObject o) : type_(Type::kObject), object_(std::move(o)) {
  for (std::size_t i = 0; i < object_.size(); ++i) {
    for (std::size_t j = i + 1; j < object_.size(); ++j) {
      if (object_[i].first == object_[j].first) {
        throw std::invalid_argument("JSON object: duplicate key '" +
                                    object_[i].first + "'");
      }
    }
  }
}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

JsonValue::JsonValue(long long n) : type_(Type::kNumber), number_(double(n)) {
  if (n >= 0) {
    exact_ = true;
    unsigned_ = static_cast<std::uint64_t>(n);
  }
}

namespace {

/// The value of an integral number that is not held exactly; throws unless
/// it is integral and within +-2^53, where doubles are exact.
std::int64_t inexact_integer(const JsonValue& value) {
  const double n = value.as_number();
  if (std::nearbyint(n) != n || std::fabs(n) > 9007199254740992.0 /* 2^53 */) {
    throw std::runtime_error("JSON: expected an integer, got " +
                             json_write(value, 0));
  }
  return static_cast<std::int64_t>(n);
}

template <typename Int>
[[noreturn]] void integer_range_error(const std::string& value, Int lo,
                                      Int hi) {
  throw std::runtime_error("JSON: integer " + value + " outside [" +
                           std::to_string(lo) + ", " + std::to_string(hi) +
                           "]");
}

}  // namespace

std::int64_t JsonValue::as_integer(std::int64_t lo, std::int64_t hi) const {
  if (exact_ && unsigned_ > std::uint64_t(INT64_MAX)) {
    integer_range_error(std::to_string(unsigned_), lo, hi);
  }
  const std::int64_t i =
      exact_ ? static_cast<std::int64_t>(unsigned_) : inexact_integer(*this);
  if (i < lo || i > hi) integer_range_error(std::to_string(i), lo, hi);
  return i;
}

std::uint64_t JsonValue::as_unsigned(std::uint64_t lo, std::uint64_t hi) const {
  std::uint64_t u = unsigned_;
  if (!exact_) {
    const std::int64_t i = inexact_integer(*this);
    if (i < 0) integer_range_error(std::to_string(i), lo, hi);
    u = static_cast<std::uint64_t>(i);
  }
  if (u < lo || u > hi) integer_range_error(std::to_string(u), lo, hi);
  return u;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const JsonObject& JsonValue::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.bool_ == b.bool_;
    case JsonValue::Type::kNumber:
      return a.exact_ && b.exact_ ? a.unsigned_ == b.unsigned_
                                  : a.number_ == b.number_;
    case JsonValue::Type::kString:
      return a.string_ == b.string_;
    case JsonValue::Type::kArray:
      return a.array_ == b.array_;
    case JsonValue::Type::kObject: {
      if (a.object_.size() != b.object_.size()) return false;
      for (const auto& [key, value] : a.object_) {
        const JsonValue* other = b.find(key);
        if (other == nullptr || !(value == *other)) return false;
      }
      return true;
    }
  }
  return false;
}

JsonParseError::JsonParseError(const std::string& message, std::size_t line,
                               std::size_t column)
    : std::runtime_error("JSON parse error at line " + std::to_string(line) +
                         ", column " + std::to_string(column) + ": " +
                         message),
      line_(line),
      column_(column) {}

namespace {

/// Recursive-descent parser over a string_view with line/column tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_trivia();
    JsonValue value = parse_value(0);
    skip_trivia();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, line_, column_);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  /// Whitespace and `//` line comments (the one extension; see json.hpp).
  void skip_trivia() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (!eof() && peek() != '\n') advance();
      } else {
        return;
      }
    }
  }

  void expect(char c, const char* where) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "' " + where);
    }
    advance();
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxJsonDepth) {
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
    }
    if (eof()) fail("unexpected end of input, expected a value");
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue(parse_string());
      case 't':
        parse_literal("true");
        return JsonValue(true);
      case 'f':
        parse_literal("false");
        return JsonValue(false);
      case 'n':
        parse_literal("null");
        return JsonValue();
      default:
        return parse_number();
    }
  }

  void parse_literal(std::string_view literal) {
    for (char expected : literal) {
      if (eof() || peek() != expected) {
        fail("invalid literal, expected '" + std::string(literal) + "'");
      }
      advance();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{', "to start an object");
    JsonValue object((JsonObject()));
    skip_trivia();
    if (!eof() && peek() == '}') {
      advance();
      return object;
    }
    for (;;) {
      skip_trivia();
      if (eof() || peek() != '"') fail("expected a string object key");
      const std::size_t key_line = line_, key_column = column_;
      std::string key = parse_string();
      if (object.find(key) != nullptr) {
        throw JsonParseError("duplicate object key '" + key + "'", key_line,
                             key_column);
      }
      skip_trivia();
      expect(':', "after object key");
      skip_trivia();
      object.set(std::move(key), parse_value(depth + 1));
      skip_trivia();
      if (eof()) fail("unterminated object, expected ',' or '}'");
      if (peek() == ',') {
        advance();
        continue;
      }
      expect('}', "to end the object");
      return object;
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[', "to start an array");
    JsonArray array;
    skip_trivia();
    if (!eof() && peek() == ']') {
      advance();
      return JsonValue(std::move(array));
    }
    for (;;) {
      skip_trivia();
      array.push_back(parse_value(depth + 1));
      skip_trivia();
      if (eof()) fail("unterminated array, expected ',' or ']'");
      if (peek() == ',') {
        advance();
        continue;
      }
      expect(']', "to end the array");
      return JsonValue(std::move(array));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("unterminated \\u escape");
      const char c = advance();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= unsigned(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= unsigned(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= unsigned(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += char(cp);
    } else if (cp < 0x800) {
      out += char(0xC0 | (cp >> 6));
      out += char(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += char(0xE0 | (cp >> 12));
      out += char(0x80 | ((cp >> 6) & 0x3F));
      out += char(0x80 | (cp & 0x3F));
    } else {
      out += char(0xF0 | (cp >> 18));
      out += char(0x80 | ((cp >> 12) & 0x3F));
      out += char(0x80 | ((cp >> 6) & 0x3F));
      out += char(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"', "to start a string");
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const char c = advance();
      if (c == '"') return out;
      if (c == '\n') fail("raw newline inside string");
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character inside string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape sequence");
      const char esc = advance();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with a following \uDC00..\uDFFF.
            if (eof() || peek() != '\\') fail("unpaired UTF-16 surrogate");
            advance();
            if (eof() || peek() != 'u') fail("unpaired UTF-16 surrogate");
            advance();
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid UTF-16 low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    const std::size_t start_line = line_, start_column = column_;
    auto digit = [](char c) { return c >= '0' && c <= '9'; };

    if (!eof() && peek() == '-') advance();
    // Integer part: a single 0, or a nonzero digit followed by digits
    // (leading zeros are invalid JSON).
    if (eof() || !digit(peek())) fail("invalid number");
    if (peek() == '0') {
      advance();
    } else {
      while (!eof() && digit(peek())) advance();
    }
    if (!eof() && digit(peek())) {
      throw JsonParseError("numbers may not have leading zeros", start_line,
                           start_column);
    }
    if (!eof() && peek() == '.') {
      advance();
      if (eof() || !digit(peek())) fail("expected digits after decimal point");
      while (!eof() && digit(peek())) advance();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!eof() && (peek() == '+' || peek() == '-')) advance();
      if (eof() || !digit(peek())) fail("expected digits in exponent");
      while (!eof() && digit(peek())) advance();
    }

    const std::string token(text_.substr(start, pos_ - start));
    // Integer literals are held exactly when they fit 64 bits unsigned.
    std::uint64_t exact = 0;
    const auto [end_of_integer, error] =
        std::from_chars(token.data(), token.data() + token.size(), exact);
    if (error == std::errc() && end_of_integer == token.data() + token.size()) {
      return JsonValue(static_cast<unsigned long long>(exact));
    }
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      throw JsonParseError("invalid number '" + token + "'", start_line,
                           start_column);
    }
    if (!std::isfinite(value)) {
      throw JsonParseError("number '" + token + "' overflows a double",
                           start_line, start_column);
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 1;
};

void write_escaped_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
          out += buf;
        } else {
          out += c;  // UTF-8 passes through verbatim
        }
    }
  }
  out += '"';
}

void write_number(std::string& out, double n) {
  if (!std::isfinite(n)) {
    throw std::invalid_argument("json_write: non-finite number");
  }
  if (std::nearbyint(n) == n && std::fabs(n) <= 9007199254740992.0 &&
      !std::signbit(n)) {
    out += std::to_string(static_cast<long long>(n));
    return;
  }
  if (std::nearbyint(n) == n && std::fabs(n) <= 9007199254740992.0) {
    // Negative integral (including -0, whose sign must survive).
    if (n == 0.0) {
      out += "-0";
    } else {
      out += std::to_string(static_cast<long long>(n));
    }
    return;
  }
#if defined(__cpp_lib_to_chars)
  // Shortest representation that parses back to the same double.
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), n);
  out.append(buf, result.ptr);
#else
  // Pre-GCC-11 toolchains lack floating-point to_chars; max_digits10 is
  // longer but round-trips just as exactly.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", n);
  out += buf;
#endif
}

void write_value(std::string& out, const JsonValue& value, int indent,
                 int depth) {
  const bool pretty = indent > 0;
  auto newline_indent = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(std::size_t(indent) * std::size_t(d), ' ');
  };

  switch (value.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      if (value.is_exact_unsigned()) {
        out += std::to_string(value.as_unsigned());
      } else {
        write_number(out, value.as_number());
      }
      return;
    case JsonValue::Type::kString:
      write_escaped_string(out, value.as_string());
      return;
    case JsonValue::Type::kArray: {
      const JsonArray& array = value.as_array();
      if (array.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(depth + 1);
        write_value(out, array[i], indent, depth + 1);
      }
      newline_indent(depth);
      out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      const JsonObject& object = value.as_object();
      if (object.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, member] : object) {
        if (!first) out += ',';
        first = false;
        newline_indent(depth + 1);
        write_escaped_string(out, key);
        out += pretty ? ": " : ":";
        write_value(out, member, indent, depth + 1);
      }
      newline_indent(depth);
      out += '}';
      return;
    }
  }
}

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue json_parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open JSON file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return json_parse(buffer.str());
  } catch (const JsonParseError& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string json_write(const JsonValue& value, int indent) {
  std::string out;
  write_value(out, value, indent, 0);
  return out;
}

void json_write_file(const std::string& path, const JsonValue& value,
                     int indent) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open file for writing: " + path);
  }
  out << json_write(value, indent) << '\n';
  if (!out) {
    throw std::runtime_error("failed writing JSON to " + path);
  }
}

}  // namespace dtpm::util
