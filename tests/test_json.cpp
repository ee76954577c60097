// util/json: parse/serialize round trips, malformed-input rejection with
// line/column, nesting-depth limits, and number edge cases.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>

namespace dtpm::util {
namespace {

JsonValue parsed(const std::string& text) { return json_parse(text); }

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(parsed("null").is_null());
  EXPECT_EQ(parsed("true").as_bool(), true);
  EXPECT_EQ(parsed("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parsed("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parsed("-12.25e-3").as_number(), -0.012250);
  EXPECT_EQ(parsed("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue v = parsed(R"({"a": [1, {"b": [true, null]}], "c": {}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 2u);
  const JsonValue* b = a->as_array()[1].find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_TRUE(b->as_array()[1].is_null());
  EXPECT_TRUE(v.find("c")->is_object());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const JsonValue v = parsed(R"({"z": 1, "a": 2, "m": 3})");
  const JsonObject& object = v.as_object();
  ASSERT_EQ(object.size(), 3u);
  EXPECT_EQ(object[0].first, "z");
  EXPECT_EQ(object[1].first, "a");
  EXPECT_EQ(object[2].first, "m");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parsed(R"("a\"b\\c\/d\b\f\n\r\t")").as_string(),
            "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(parsed(R"("Aé")").as_string(), "A\xc3\xa9");
  // Astral plane via a UTF-16 surrogate pair: U+1F600.
  EXPECT_EQ(parsed(R"("😀")").as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsBadEscapesAndSurrogates) {
  EXPECT_THROW(parsed(R"("\q")"), JsonParseError);
  EXPECT_THROW(parsed(R"("\u12g4")"), JsonParseError);
  EXPECT_THROW(parsed(R"("\ud83d")"), JsonParseError);   // unpaired high
  EXPECT_THROW(parsed(R"("\ude00")"), JsonParseError);   // lone low
  EXPECT_THROW(parsed("\"raw\nnewline\""), JsonParseError);
  EXPECT_THROW(parsed("\"ctrl\x01\""), JsonParseError);
}

TEST(Json, NumberEdgeCases) {
  // Largest exactly-representable integer range survives.
  EXPECT_EQ(parsed("9007199254740992").as_integer(), 9007199254740992LL);
  EXPECT_EQ(parsed("-9007199254740992").as_integer(), -9007199254740992LL);
  EXPECT_DOUBLE_EQ(parsed("1e308").as_number(), 1e308);
  EXPECT_DOUBLE_EQ(parsed("0.5").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(parsed("-0").as_number(), 0.0);
  EXPECT_TRUE(std::signbit(parsed("-0").as_number()));
  EXPECT_DOUBLE_EQ(parsed("2.5E+2").as_number(), 250.0);
}

TEST(Json, IntegerLiteralsPast2To53StayExact) {
  // A 64-bit seed keeps every digit through parse and write...
  const JsonValue seed = parsed("16662371453428439381");
  EXPECT_TRUE(seed.is_exact_unsigned());
  EXPECT_EQ(seed.as_unsigned(), 16662371453428439381ULL);
  EXPECT_EQ(json_write(seed), "16662371453428439381");
  EXPECT_EQ(parsed("18446744073709551615").as_unsigned(), UINT64_MAX);
  EXPECT_EQ(json_write(JsonValue(std::uint64_t{16662371453428439381ULL})),
            "16662371453428439381");
  // ...past 2^64 - 1 a literal is an ordinary, rounded double...
  EXPECT_FALSE(parsed("18446744073709551616").is_exact_unsigned());
  EXPECT_THROW(parsed("18446744073709551616").as_unsigned(),
               std::runtime_error);
  // ...and as_integer reports what does not fit an int64 as out of range.
  EXPECT_THROW(seed.as_integer(), std::runtime_error);

  // Everything that printed before prints the same.
  EXPECT_EQ(json_write(JsonValue(42U)), "42");
  EXPECT_EQ(json_write(parsed("9007199254740992")), "9007199254740992");
  EXPECT_EQ(json_write(parsed("-7")), "-7");
  EXPECT_EQ(json_write(parsed("-0")), "-0");
  EXPECT_EQ(json_write(parsed("2.5")), "2.5");
  EXPECT_EQ(json_write(parsed("1e300")), "1e+300");
  EXPECT_EQ(json_write(JsonValue(1e19)), "1e+19");
  // An exact integer equals the double of the same value.
  EXPECT_EQ(parsed("5"), JsonValue(5.0));
}

TEST(Json, AsUnsignedChecksIntegralityAndRange) {
  EXPECT_EQ(parsed("5").as_unsigned(1, 5), 5U);
  EXPECT_THROW(parsed("6").as_unsigned(1, 5), std::runtime_error);
  EXPECT_THROW(parsed("0.5").as_unsigned(), std::runtime_error);
  try {
    (void)parsed("-1").as_unsigned();
    FAIL() << "a negative integer passed as unsigned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ("JSON: integer -1 outside [0, 18446744073709551615]",
                 e.what());
  }
}

TEST(Json, RejectsMalformedNumbers) {
  EXPECT_THROW(parsed("01"), JsonParseError);    // leading zero
  EXPECT_THROW(parsed("+1"), JsonParseError);
  EXPECT_THROW(parsed(".5"), JsonParseError);
  EXPECT_THROW(parsed("1."), JsonParseError);
  EXPECT_THROW(parsed("1e"), JsonParseError);
  EXPECT_THROW(parsed("1e999"), JsonParseError);  // overflows a double
  EXPECT_THROW(parsed("NaN"), JsonParseError);
  EXPECT_THROW(parsed("Infinity"), JsonParseError);
}

TEST(Json, AsIntegerRejectsFractionsAndRangeViolations) {
  EXPECT_THROW(parsed("1.5").as_integer(), std::runtime_error);
  EXPECT_THROW(parsed("7").as_integer(0, 5), std::runtime_error);
  EXPECT_THROW(parsed("-1").as_integer(0), std::runtime_error);
  EXPECT_EQ(parsed("5").as_integer(0, 5), 5);
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    json_parse("[1, 2,]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.column(), 7u);  // the ']' where a value was expected
    EXPECT_NE(std::string(e.what()).find("line 1, column 7"),
              std::string::npos);
  }

  try {
    json_parse("{\n  \"a\": 1,\n  \"b\": tru\n}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(Json, RejectsTrailingGarbageAndDuplicates) {
  EXPECT_THROW(parsed("{} x"), JsonParseError);
  EXPECT_THROW(parsed("1 2"), JsonParseError);
  try {
    json_parse(R"({"a": 1, "a": 2})");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key 'a'"),
              std::string::npos);
  }
}

TEST(Json, LineCommentsAreTrivia) {
  const JsonValue v = parsed(
      "// leading comment\n"
      "{\n"
      "  \"a\": 1, // trailing comment\n"
      "  // whole-line comment\n"
      "  \"b\": [2, 3] // after a value\n"
      "}\n"
      "// closing remark");
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.0);
  EXPECT_EQ(v.find("b")->as_array().size(), 2u);
  // A single slash is not a comment.
  EXPECT_THROW(parsed("/ 1"), JsonParseError);
}

TEST(Json, DeepNestingWithinLimitParses) {
  std::string text;
  for (int i = 0; i < 150; ++i) text += '[';
  text += '1';
  for (int i = 0; i < 150; ++i) text += ']';
  const JsonValue v = json_parse(text);
  EXPECT_TRUE(v.is_array());
}

TEST(Json, NestingBeyondLimitRejected) {
  std::string text;
  for (int i = 0; i < int(kMaxJsonDepth) + 50; ++i) text += '[';
  try {
    json_parse(text);
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper"), std::string::npos);
  }
}

TEST(Json, WriteParseRoundTrip) {
  const std::string text = R"({
  "name": "round/trip \"quoted\"",
  "values": [1, 2.5, -3e-4, 9007199254740992],
  "flags": {"on": true, "off": false, "unset": null},
  "empty_array": [],
  "empty_object": {}
})";
  const JsonValue v = json_parse(text);
  for (int indent : {0, 2, 4}) {
    const JsonValue reparsed = json_parse(json_write(v, indent));
    EXPECT_EQ(reparsed, v) << "indent " << indent;
  }
}

TEST(Json, WriterFormats) {
  JsonValue object((JsonObject()));
  object.set("a", 1);
  object.set("b", JsonValue(JsonArray{JsonValue(true), JsonValue("x")}));
  EXPECT_EQ(json_write(object, 0), R"({"a":1,"b":[true,"x"]})");
  EXPECT_EQ(json_write(object, 2), "{\n  \"a\": 1,\n  \"b\": [\n    true,\n"
                                   "    \"x\"\n  ]\n}");
  // Integral doubles print without a decimal point; others round-trip.
  EXPECT_EQ(json_write(JsonValue(3.0), 0), "3");
  const double pi = 3.141592653589793;
  EXPECT_EQ(json_parse(json_write(JsonValue(pi), 0)).as_number(), pi);
}

TEST(Json, WriterRejectsNonFinite) {
  EXPECT_THROW(json_write(JsonValue(std::nan("")), 0), std::invalid_argument);
  EXPECT_THROW(json_write(JsonValue(HUGE_VAL), 0), std::invalid_argument);
}

TEST(Json, EqualityIgnoresObjectOrder) {
  EXPECT_EQ(parsed(R"({"a": 1, "b": 2})"), parsed(R"({"b": 2, "a": 1})"));
  EXPECT_NE(parsed(R"({"a": 1})"), parsed(R"({"a": 2})"));
  EXPECT_NE(parsed("[1, 2]"), parsed("[2, 1]"));  // arrays stay ordered
  EXPECT_EQ(parsed("1"), parsed("1.0"));          // numeric equality
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(parsed("1").as_string(), std::runtime_error);
  EXPECT_THROW(parsed("\"s\"").as_number(), std::runtime_error);
  EXPECT_THROW(parsed("[]").as_object(), std::runtime_error);
}

TEST(Json, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "json_roundtrip.json";
  JsonValue object((JsonObject()));
  object.set("k", JsonValue(JsonArray{JsonValue(1), JsonValue(2)}));
  json_write_file(path, object);
  EXPECT_EQ(json_parse_file(path), object);
  EXPECT_THROW(json_parse_file(path + ".does-not-exist"), std::runtime_error);
}

}  // namespace
}  // namespace dtpm::util
