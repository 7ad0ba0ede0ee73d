#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
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

std::string writerNumber(double d) {
  std::string out;
  JsonWriter(out).number(d);
  return out;
}

TEST(JsonWriter, NumbersMatchPrintfForm) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 2.5, 1e-7, 5e-324, 1e15 - 1, 1e15, -1e15,
      1e15 + 0.5, 9007199254740993.0, 1e300, -1e-300,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Any finite bit pattern...
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
    // ...and the wire's own values: tick counts in paper units.
    values.push_back(
        static_cast<double>(static_cast<std::int64_t>(rng() % 4'000'000'000'000)) /
        1e6);
  }
  for (const double d : values) {
    EXPECT_EQ(writerNumber(d), printfNumber(d)) << d;
  }
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
