#include "common/json.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace tprm {
namespace {

JsonValue parseOk(const std::string& text) {
  const auto result = parseJson(text);
  EXPECT_TRUE(result.ok()) << result.error << " at " << result.errorOffset;
  return result.ok() ? *result.value : JsonValue();
}

std::string parseError(const std::string& text) {
  const auto result = parseJson(text);
  EXPECT_FALSE(result.ok()) << "unexpectedly parsed: " << text;
  return result.error;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_EQ(parseOk("true").asBool(), true);
  EXPECT_EQ(parseOk("false").asBool(), false);
  EXPECT_DOUBLE_EQ(parseOk("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parseOk("-3.5").asNumber(), -3.5);
  EXPECT_DOUBLE_EQ(parseOk("1e3").asNumber(), 1000.0);
  EXPECT_DOUBLE_EQ(parseOk("2.5E-2").asNumber(), 0.025);
  EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
}

TEST(JsonParse, Whitespace) {
  EXPECT_DOUBLE_EQ(parseOk("  \n\t 7 \r\n").asNumber(), 7.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parseOk(R"("a\"b\\c\/d\ne\tf")").asString(), "a\"b\\c/d\ne\tf");
  EXPECT_EQ(parseOk(R"("Aé")").asString(), "A\xC3\xA9");
}

TEST(JsonParse, Arrays) {
  const auto v = parseOk("[1, \"two\", [3], {}]");
  ASSERT_TRUE(v.isArray());
  ASSERT_EQ(v.asArray().size(), 4u);
  EXPECT_DOUBLE_EQ(v.asArray()[0].asNumber(), 1.0);
  EXPECT_EQ(v.asArray()[1].asString(), "two");
  EXPECT_TRUE(v.asArray()[2].isArray());
  EXPECT_TRUE(v.asArray()[3].isObject());
  EXPECT_TRUE(parseOk("[]").asArray().empty());
}

TEST(JsonParse, Objects) {
  const auto v = parseOk(R"({"a": 1, "b": {"c": true}})");
  ASSERT_TRUE(v.isObject());
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 1.0);
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_TRUE(v.find("b")->find("c")->asBool());
  EXPECT_EQ(v.find("zzz"), nullptr);
  EXPECT_TRUE(parseOk("{}").asObject().empty());
}

TEST(JsonParse, DuplicateKeysLastWins) {
  const auto v = parseOk(R"({"a": 1, "a": 2})");
  EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 2.0);
}

TEST(JsonParse, Errors) {
  EXPECT_NE(parseError(""), "");
  EXPECT_NE(parseError("{"), "");
  EXPECT_NE(parseError("[1, 2"), "");
  EXPECT_NE(parseError("[1 2]"), "");
  EXPECT_NE(parseError("\"unterminated"), "");
  EXPECT_NE(parseError("truthy"), "");
  EXPECT_NE(parseError("1 2"), "");        // trailing garbage
  EXPECT_NE(parseError("{'a': 1}"), "");   // single quotes
  EXPECT_NE(parseError("{\"a\" 1}"), "");  // missing colon
  EXPECT_NE(parseError("-"), "");
  EXPECT_NE(parseError(R"("\x41")"), "");  // invalid escape
  EXPECT_NE(parseError(R"("\ud800")"), "");  // surrogate
}

TEST(JsonParse, DepthLimitRejectsDeepNesting) {
  // Wire input is untrusted: a few KB of "[[[[..." must not blow the stack.
  const std::string deepArrays(10'000, '[');
  EXPECT_NE(parseError(deepArrays), "");
  std::string deepObjects;
  for (int i = 0; i < 10'000; ++i) deepObjects += "{\"k\":";
  EXPECT_NE(parseError(deepObjects), "");

  // Exactly at the limit parses; one past it does not.
  JsonParseOptions options;
  options.maxDepth = 4;
  const std::string atLimit = "[[[[1]]]]";
  EXPECT_TRUE(parseJson(atLimit, options).ok());
  const std::string pastLimit = "[[[[[1]]]]]";
  const auto rejected = parseJson(pastLimit, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error.find("nesting"), std::string::npos);
}

TEST(JsonParse, DepthIsReleasedWhenContainersClose) {
  // Siblings do not accumulate depth: many shallow containers are fine even
  // under a tight limit.
  JsonParseOptions options;
  options.maxDepth = 2;
  std::string siblings = "[";
  for (int i = 0; i < 1'000; ++i) {
    siblings += i == 0 ? "[1]" : ",[1]";
  }
  siblings += "]";
  EXPECT_TRUE(parseJson(siblings, options).ok());
}

TEST(JsonParse, MalformedWireCorpus) {
  // Truncated frames: every prefix of a valid document fails cleanly.
  const std::string document = R"({"cmd": "NEGOTIATE", "spec": {"a": [1, 2]}})";
  for (std::size_t n = 0; n < document.size(); ++n) {
    const auto result = parseJson(document.substr(0, n));
    EXPECT_FALSE(result.ok()) << "prefix of length " << n;
  }
  // Bad escapes.
  EXPECT_NE(parseError(R"("\q")"), "");
  EXPECT_NE(parseError(R"("\u12")"), "");        // truncated \u
  EXPECT_NE(parseError(R"("\u12zz")"), "");      // non-hex \u
  EXPECT_NE(parseError("\"a\\"), "");            // escape at end of input
  // Control characters must be escaped.
  EXPECT_NE(parseError("\"a\nb\""), "");
  // Huge numbers: overflow is an error, not an abort or infinity.
  EXPECT_NE(parseError("1e999"), "");
  EXPECT_NE(parseError("-1e999"), "");
  EXPECT_NE(parseError(std::string(400, '9')), "");
  // Large-but-representable values still parse.
  EXPECT_DOUBLE_EQ(parseOk("1e308").asNumber(), 1e308);
  // Lone structural tokens.
  for (const char* text : {"]", "}", ",", ":", "[,]", "{,}", "[1,]", "{\"a\":}"}) {
    EXPECT_NE(parseError(text), "") << text;
  }
}

TEST(JsonParse, ErrorOffsetPointsNearProblem) {
  const auto result = parseJson("[1, 2, oops]");
  ASSERT_FALSE(result.ok());
  EXPECT_GE(result.errorOffset, 7u);
}

TEST(JsonDump, ScalarsAndContainers) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
  EXPECT_EQ(JsonValue(JsonValue::Array{}).dump(), "[]");
  EXPECT_EQ(JsonValue(JsonValue::Object{}).dump(), "{}");
}

TEST(JsonDump, EscapesStrings) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
}

TEST(JsonRoundTrip, PreservesStructure) {
  const std::string text = R"({
  "chains": [
    {
      "name": "shape1",
      "tasks": [1, 2.5, true, null, "x"]
    }
  ],
  "name": "job"
})";
  const auto v = parseOk(text);
  const auto reparsed = parseOk(v.dump());
  EXPECT_EQ(v, reparsed);
}

TEST(JsonRoundTrip, NumbersSurvive) {
  for (const double d : {0.0, 1.0, -1.0, 0.1, 1e-9, 123456789.0, 2.5e17}) {
    const auto v = parseOk(JsonValue(d).dump());
    EXPECT_DOUBLE_EQ(v.asNumber(), d);
  }
}

// --- Streaming writer ------------------------------------------------------

TEST(JsonWriter, WritesTheDumpFormInBothStyles) {
  JsonValue::Object inner;
  inner["b"] = JsonValue(JsonValue::Array{});
  inner["c"] = JsonValue(JsonValue::Object{});
  JsonValue::Object root;
  root["a"] = JsonValue(JsonValue::Array{1, 2.5, true, nullptr, "x\t\x01"});
  root["n"] = JsonValue(std::move(inner));
  root["z"] = -0.0;
  const JsonValue tree(std::move(root));

  const auto write = [](JsonWriter::Style style) {
    std::string out;
    JsonWriter w(out, style);
    w.beginObject();
    w.key("a");
    w.beginArray();
    w.integer(1);
    w.number(2.5);
    w.boolean(true);
    w.null();
    w.string("x\t\x01");
    w.endArray();
    w.key("n");
    w.beginObject();
    w.key("b");
    w.beginArray();
    w.endArray();
    w.key("c");
    w.beginObject();
    w.endObject();
    w.endObject();
    w.key("z");
    w.number(-0.0);
    w.endObject();
    return out;
  };
  EXPECT_EQ(write(JsonWriter::Style::Pretty), tree.dump());
  EXPECT_EQ(write(JsonWriter::Style::Compact), tree.dumpCompact());
  EXPECT_EQ(tree.dumpCompact(),
            R"({"a":[1,2.5,true,null,"x\t\u0001"],"n":{"b":[],"c":{}},"z":-0})");
}

/// The number forms the writer promises, spelled with printf.
std::string printfNumber(double d) {
  char buffer[64];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", d);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", d);
  }
  return buffer;
}

/// The writer's former number path: std::to_chars throughout.
std::string toCharsNumber(double d) {
  char buffer[32];
  char* end = nullptr;
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    if (d == 0.0 && std::signbit(d)) return "-0";
    end = std::to_chars(buffer, buffer + sizeof buffer,
                        static_cast<std::int64_t>(d))
              .ptr;
  } else {
    end = std::to_chars(buffer, buffer + sizeof buffer, d,
                        std::chars_format::general, 17)
              .ptr;
  }
  return std::string(buffer, end);
}

std::string writerNumber(double d) {
  std::string out;
  JsonWriter(out).number(d);
  return out;
}

/// Doubles whose exact decimal expansion has 18 significant digits ending
/// in 5: printing 17 of them is an exact tie, which "%.17g" breaks to even.
/// Each is an integer part of 18 - t digits plus an odd multiple of 2^-t.
std::vector<double> decimalTies(std::mt19937_64& rng) {
  std::vector<double> ties;
  for (int t = 1; t <= 17; ++t) {
    std::uint64_t low = 1;
    for (int i = 0; i < 17 - t; ++i) low *= 10;
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t whole = low + rng() % (9 * low);
      const std::uint64_t odd = (rng() % (std::uint64_t{1} << (t - 1))) * 2 + 1;
      const std::uint64_t scaled = (whole << t) + odd;
      if (whole >= (std::uint64_t{1} << (53 - t)) ||
          scaled >= (std::uint64_t{1} << 53)) {
        continue;  // not exactly representable
      }
      ties.push_back(std::ldexp(static_cast<double>(scaled), -t));
    }
  }
  return ties;
}

TEST(JsonWriter, NumbersMatchPrintfForm) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 2.5, 1e-7, 5e-324, -5e-324, 1e15 - 1, 1e15,
      -1e15, 1e15 + 0.5, 1e15 - 0.125, 9007199254740993.0, 1e300, -1e-300,
      kMax, kMin, kInf, -kInf, std::nextafter(kMin, 0.0)};
  // Every power of ten from 1e-7 to 1e17 and its neighbours.
  for (int p = -7; p <= 17; ++p) {
    const std::string literal = "1e" + std::to_string(p);
    const double d = std::strtod(literal.c_str(), nullptr);
    for (const double v : {d, std::nextafter(d, 0.0), std::nextafter(d, kInf)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  // The integral boundary and the edges of the 17-digit fast path (binary
  // exponents -20 to 55), with neighbours.
  for (const double edge : {1e15, std::ldexp(1.0, -20), std::ldexp(1.0, -21),
                            std::ldexp(1.0, 55), std::ldexp(1.0, 56),
                            std::ldexp(1.0, 53), 1e-6, 1e17}) {
    double below = edge;
    double above = edge;
    for (int i = 0; i < 64; ++i) {
      values.push_back(below);
      values.push_back(-above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, kInf);
    }
  }
  std::mt19937_64 rng(7);
  const auto ties = decimalTies(rng);
  ASSERT_GT(ties.size(), 10000u);
  values.insert(values.end(), ties.begin(), ties.end());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  while (values.size() < 1'050'000) {
    // Any finite bit pattern (subnormals included)...
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
    values.push_back(std::ldexp(static_cast<double>(rng() >> 12), -1074));
    // ...the wire's own values: tick counts in paper units...
    values.push_back(
        static_cast<double>(static_cast<std::int64_t>(rng() % 4'000'000'000'000)) /
        1e6);
    // ...and uniform values over the fast path's decades.
    values.push_back(unit(rng) *
                     std::pow(10.0, static_cast<double>(rng() % 24) - 7.0));
  }
  std::size_t mismatches = 0;
  for (const double d : values) {
    const std::string written = writerNumber(d);
    if (written == printfNumber(d) && written == toCharsNumber(d)) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << "writer " << written << ", printf " << printfNumber(d)
                    << ", to_chars " << toCharsNumber(d);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(JsonWriter, Number17MatchesPrintfOnTies) {
  // The tie family alone, straight through the printer: every value must
  // print with 17 digits rounded half to even, as printf does.
  std::mt19937_64 rng(19);
  std::size_t even = 0;
  for (const double d : decimalTies(rng)) {
    char exact[96];
    std::snprintf(exact, sizeof exact, "%.40e", d);
    // The 18th significant digit is 5 and every later one is zero.
    const std::string_view digits(
        exact, static_cast<std::size_t>(std::strchr(exact, 'e') - exact));
    ASSERT_EQ(digits[18], '5') << exact;
    ASSERT_EQ(digits.find_first_not_of('0', 19), std::string_view::npos)
        << exact;
    char buffer[kNumber17Room];
    const std::string written(buffer, writeNumber17(buffer, d));
    char expected[64];
    std::snprintf(expected, sizeof expected, "%.17g", d);
    ASSERT_EQ(written, expected);
    ++even;
  }
  EXPECT_GT(even, 10000u);
}

TEST(JsonWriter, DeepNestingKeepsTheDumpForm) {
  // Past the writer's inline container stack and past the indentation one
  // copy covers, the bytes must still be the canonical form.
  for (const int depth : {1, 14, 15, 16, 31, 32, 33, 70, 100}) {
    std::string pretty;
    std::string compact;
    JsonWriter wp(pretty);
    JsonWriter wc(compact, JsonWriter::Style::Compact);
    std::string expected;
    for (int i = 0; i < depth; ++i) {
      wp.beginArray();
      wc.beginArray();
      expected += "[\n" + std::string(2 * static_cast<std::size_t>(i + 1), ' ');
    }
    wp.beginObject();
    wp.key("k").integer(7);
    wp.endObject();
    wc.integer(7);
    expected += "{\n" + std::string(2 * static_cast<std::size_t>(depth + 1), ' ') +
                "\"k\": 7\n" + std::string(2 * static_cast<std::size_t>(depth), ' ') +
                "}";
    for (int i = depth - 1; i >= 0; --i) {
      wp.endArray();
      wc.endArray();
      expected += "\n" + std::string(2 * static_cast<std::size_t>(i), ' ') + "]";
    }
    EXPECT_EQ(pretty, expected) << depth;
    EXPECT_EQ(compact, std::string(static_cast<std::size_t>(depth), '[') + "7" +
                           std::string(static_cast<std::size_t>(depth), ']'))
        << depth;
  }
}

TEST(JsonWriter, AppendsAfterWhatTheStringHeld) {
  // Growth is relative to the document, not to the string: a long prefix
  // stays intact and the string ends exactly where the document does.
  std::string out(100000, 'x');
  {
    JsonWriter w(out);
    w.beginObject();
    w.key("a").string(std::string(3000, 'y'));
    w.endObject();
    EXPECT_EQ(out.size(), 100000u + 3000u + 13u);
  }
  EXPECT_EQ(out.substr(0, 100000), std::string(100000, 'x'));
  EXPECT_EQ(out.substr(100000, 10), "{\n  \"a\": \"");
  EXPECT_EQ(out.back(), '}');
}

TEST(JsonWriter, IntegersMatchTheirDoubles) {
  std::vector<std::int64_t> values = {0,
                                      1,
                                      -1,
                                      999'999'999'999'999,
                                      -999'999'999'999'999,
                                      1'000'000'000'000'000,
                                      -1'000'000'000'000'000,
                                      std::numeric_limits<std::int64_t>::max(),
                                      std::numeric_limits<std::int64_t>::min()};
  std::mt19937_64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<std::int64_t>(rng()) >> (rng() % 64));
  }
  for (const auto i : values) {
    std::string out;
    JsonWriter(out).integer(i);
    EXPECT_EQ(out, writerNumber(static_cast<double>(i))) << i;
  }
}

TEST(JsonWriter, KeysOutOfOrderAreCaughtInDebugBuilds) {
  std::string out;
  JsonWriter w(out);
  w.beginObject();
  w.key("b");
  w.integer(1);
  EXPECT_DEBUG_DEATH(w.key("a"), "ascending order");
}

// --- Pull reader -----------------------------------------------------------

TEST(JsonReader, PullsMembersAndElementsInDocumentOrder) {
  JsonReader reader(
      R"( {"k\u0041y": [1, "two", true, null], "skip": {"x": [[]]}, "n": -2.5e1} )");
  ASSERT_TRUE(reader.nextIs(JsonReader::Kind::Object));
  ASSERT_TRUE(reader.beginObject());
  std::string_view key;
  ASSERT_TRUE(reader.nextMember(&key));
  EXPECT_EQ(key, "kAy");  // escaped keys are decoded
  ASSERT_TRUE(reader.beginArray());
  std::vector<JsonReader::Kind> kinds;
  while (reader.nextElement()) {
    JsonReader::Kind kind = JsonReader::Kind::Null;
    ASSERT_TRUE(reader.peek(&kind));
    kinds.push_back(kind);
    ASSERT_TRUE(reader.skipValue());
  }
  EXPECT_EQ(kinds,
            (std::vector<JsonReader::Kind>{
                JsonReader::Kind::Number, JsonReader::Kind::String,
                JsonReader::Kind::Bool, JsonReader::Kind::Null}));
  ASSERT_TRUE(reader.nextMember(&key));
  EXPECT_EQ(key, "skip");
  ASSERT_TRUE(reader.skipValue());
  ASSERT_TRUE(reader.nextMember(&key));
  EXPECT_EQ(key, "n");
  double n = 0.0;
  ASSERT_TRUE(reader.readNumber(&n));
  EXPECT_EQ(n, -25.0);
  EXPECT_FALSE(reader.nextMember(&key));
  EXPECT_FALSE(reader.failed());
  EXPECT_TRUE(reader.finish());
}

TEST(JsonReader, SkippingReportsParseJsonErrorsAtTheSameOffsets) {
  const std::string document =
      R"({"a": [1, -2.5e3, "s\"é\n"], "b": {"c": null, "d": [true, false]}})";
  std::vector<std::string> corpus;
  for (std::size_t n = 0; n <= document.size(); ++n) {
    corpus.push_back(document.substr(0, n));
  }
  for (std::size_t i = 0; i < document.size(); ++i) {
    for (const char c : std::string("{}[]\",:0-.eEtfnu\\ \x01")) {
      std::string flipped = document;
      flipped[i] = c;
      corpus.push_back(flipped);
    }
  }
  for (const auto& text : corpus) {
    const auto parsed = parseJson(text);
    JsonReader reader(text);
    const bool ok = reader.skipValue() && reader.finish();
    ASSERT_EQ(ok, parsed.ok()) << text;
    if (!ok) {
      EXPECT_EQ(reader.error(), parsed.error) << text;
      EXPECT_EQ(reader.errorOffset(), parsed.errorOffset) << text;
    }
  }
}

TEST(JsonReader, FirstErrorIsSticky) {
  JsonReader reader("[1, oops, 3]");
  ASSERT_TRUE(reader.beginArray());
  ASSERT_TRUE(reader.nextElement());
  ASSERT_TRUE(reader.skipValue());
  ASSERT_TRUE(reader.nextElement());
  EXPECT_FALSE(reader.skipValue());
  EXPECT_STREQ(reader.error(), "invalid number");
  EXPECT_EQ(reader.errorOffset(), 4u);
  EXPECT_FALSE(reader.nextElement());
  EXPECT_FALSE(reader.finish());
  EXPECT_EQ(reader.errorOffset(), 4u);
}

TEST(JsonCastFits, BoundsAreTheTypesRanges) {
  EXPECT_TRUE(castFits<int>(2147483647.0));
  EXPECT_TRUE(castFits<int>(2147483647.9));  // truncates into range
  EXPECT_FALSE(castFits<int>(2147483648.0));
  EXPECT_TRUE(castFits<int>(-2147483648.9));
  EXPECT_FALSE(castFits<int>(-2147483649.0));
  EXPECT_TRUE(castFits<std::uint32_t>(-0.5));
  EXPECT_FALSE(castFits<std::uint32_t>(-1.0));
  EXPECT_FALSE(castFits<std::uint32_t>(4294967296.0));
  EXPECT_TRUE(castFits<std::uint64_t>(18446744073709549568.0));
  EXPECT_FALSE(castFits<std::uint64_t>(18446744073709551616.0));
  EXPECT_FALSE(castFits<std::int64_t>(9223372036854775808.0));
  EXPECT_FALSE(castFits<int>(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(castFits<int>(std::numeric_limits<double>::infinity()));
}

TEST(JsonDeath, TypeMismatchAborts) {
  const JsonValue v(42);
  EXPECT_DEATH((void)v.asString(), "not a string");
  EXPECT_DEATH((void)v.asArray(), "not an array");
  EXPECT_DEATH((void)v.asObject(), "not an object");
  EXPECT_DEATH((void)v.asBool(), "not a boolean");
  EXPECT_DEATH((void)JsonValue("x").asNumber(), "not a number");
}

}  // namespace
}  // namespace tprm
