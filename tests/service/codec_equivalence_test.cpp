// Differential test: the wire decoders against the reader they replaced.
//
// The oracle below is the former JSON layer, kept verbatim apart from its
// namespace (and parseJson's default argument, which lived on the
// declaration): the pull reader (byte-at-a-time whitespace, every number
// through from_chars), JsonField/readMember, the tree parser, the spec
// reader (per-member string captures, erase-then-insert bindings, no
// reserves) and the request decoder built on them.  For every frame of the
// scenario streams, and for truncated, byte-flipped and re-spaced copies of
// each, the production code must produce the same value, or fail with the
// same error text at the same byte offset.  The response decoder's own
// logic did not change, so its frames are checked at the reader level:
// the tree and the skip of each must match the oracle's, and a syntax
// error must surface with the oracle's text and offset.
#include <gtest/gtest.h>

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "service/protocol.h"
#include "taskmodel/spec_io.h"
#include "workload/scenario.h"

namespace tprm::service {
namespace {
namespace legacy {

using task::Chain;
using task::MalleableSpec;
using task::QualityComposition;
using task::SpecParseResult;
using task::TaskSpec;
using task::TunableJobSpec;

/// Pull reader over one JSON document, for decoders that read straight
/// into their own structs.  It accepts exactly parseJson's grammar, honours
/// the same depth limit, and fails with the same error texts at the same
/// byte offsets (parseJson is built on it).
///
/// Values are consumed in document order.  The first error is sticky: every
/// later call returns false, so decoders can unwind without checking each
/// step, and a syntax error anywhere in the document is still reported when
/// the caller asks (failed(), after finish()).
class JsonReader {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  /// Reads `text`, which must outlive the reader.
  explicit JsonReader(std::string_view text,
                      const JsonParseOptions& options = {})
      : text_(text), maxDepth_(options.maxDepth) {}

  /// Kind of the next value, judged by its first byte as parseJson does:
  /// anything but { [ " t f n reads as a number.  False at end of input.
  bool peek(Kind* kind);
  /// True iff the next value is of `kind`.
  bool nextIs(Kind kind) {
    Kind next = Kind::Null;
    return peek(&next) && next == kind;
  }

  /// Typed reads of the next value; call the one peek() named.
  bool readNull();
  bool readBool(bool* out);
  bool readNumber(double* out);
  bool readString(std::string* out);
  /// Checks the next value, whatever its kind, without keeping it.
  bool skipValue();

  /// Enters an object; then nextMember() until it returns false (object
  /// closed, or failed()).  After each true return read or skip the value.
  bool beginObject();
  /// Reads the next member's key.  The view stays valid until the next key.
  bool nextMember(std::string_view* key);
  /// Enters an array; then nextElement() until it returns false.
  bool beginArray();
  bool nextElement();

  /// Requires nothing but whitespace after the document.
  bool finish();

  [[nodiscard]] bool failed() const { return error_ != nullptr; }
  /// Error text, or "" while none.
  [[nodiscard]] const char* error() const {
    return error_ != nullptr ? error_ : "";
  }
  [[nodiscard]] std::size_t errorOffset() const { return errorOffset_; }

 private:
  bool fail(const char* what);
  void skipWhitespace();
  bool atValue();
  bool literal(std::string_view word);
  bool scanString(std::string* out);
  bool scanKey(std::string_view* key);

  std::string_view text_;
  int maxDepth_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  /// True right after beginObject()/beginArray(): the next nextMember() /
  /// nextElement() reads the first entry (no separator before it).
  bool first_ = false;
  const char* error_ = nullptr;
  std::size_t errorOffset_ = 0;
  std::string keyBuffer_;  // keys that contain escapes
};

/// One object member as a struct decoder keeps it while reading: whether it
/// was present, its kind and, for scalars, its value.  Decoders capture each
/// member they know into a field (a repeated key overwrites it, so the last
/// one wins, as in JsonValue) and run their checks once the object is
/// complete, in their own order.
struct JsonField {
  bool present = false;
  JsonReader::Kind kind = JsonReader::Kind::Null;
  double number = 0.0;
  bool boolean = false;
  std::string text;

  /// Reads the next value: scalars are kept, containers checked and
  /// skipped.
  bool read(JsonReader& reader);

  [[nodiscard]] bool isNumber() const {
    return present && kind == JsonReader::Kind::Number;
  }
  [[nodiscard]] bool isString() const {
    return present && kind == JsonReader::Kind::String;
  }
  [[nodiscard]] bool isBool() const {
    return present && kind == JsonReader::Kind::Bool;
  }
};

/// Reads the next value into the field whose name in `names` (parallel to
/// `fields`) is `key`; skips the value of an unknown member.
template <std::size_t N>
bool readMember(JsonReader& reader, std::string_view key,
                const std::array<std::string_view, N>& names,
                std::array<JsonField, N>& fields) {
  for (std::size_t i = 0; i < N; ++i) {
    if (key == names[i]) return fields[i].read(reader);
  }
  return reader.skipValue();
}

bool JsonReader::fail(const char* what) {
  if (error_ == nullptr) {
    error_ = what;
    errorOffset_ = pos_;
  }
  return false;
}

void JsonReader::skipWhitespace() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::atValue() {
  if (error_ != nullptr) return false;
  skipWhitespace();
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  return true;
}

bool JsonReader::peek(Kind* kind) {
  if (!atValue()) return false;
  switch (text_[pos_]) {
    case '{': *kind = Kind::Object; break;
    case '[': *kind = Kind::Array; break;
    case '"': *kind = Kind::String; break;
    case 't':
    case 'f': *kind = Kind::Bool; break;
    case 'n': *kind = Kind::Null; break;
    default: *kind = Kind::Number;
  }
  return true;
}

bool JsonReader::literal(std::string_view word) {
  if (text_.compare(pos_, word.size(), word) != 0) {
    return fail("invalid literal");
  }
  pos_ += word.size();
  return true;
}

bool JsonReader::readNull() { return atValue() && literal("null"); }

bool JsonReader::readBool(bool* out) {
  if (!atValue()) return false;
  *out = text_[pos_] == 't';
  return literal(*out ? "true" : "false");
}

bool JsonReader::readNumber(double* out) {
  if (!atValue()) return false;
  const auto isDigit = [this] {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  };
  const std::size_t start = pos_;
  if (text_[pos_] == '-') ++pos_;
  while (isDigit()) ++pos_;
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    while (isDigit()) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    while (isDigit()) ++pos_;
  }
  if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
    return fail("invalid number");
  }
  const auto [ptr, ec] =
      std::from_chars(text_.data() + start, text_.data() + pos_, *out);
  if (ec != std::errc{} || ptr != text_.data() + pos_) {
    return fail("invalid number");
  }
  return true;
}

bool JsonReader::readString(std::string* out) {
  if (!atValue()) return false;
  TPRM_DCHECK(text_[pos_] == '"', "readString() on a non-string value");
  return scanString(out);
}

bool JsonReader::scanString(std::string* out) {
  ++pos_;  // '"'
  // Fast path: copy the run up to the first escape in one go.
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const auto c = static_cast<unsigned char>(text_[pos_]);
    if (c == '"' || c == '\\' || c < 0x20) break;
    ++pos_;
  }
  if (out != nullptr) out->assign(text_.data() + start, pos_ - start);
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) {
      return fail("unescaped control character in string");
    }
    if (c != '\\') {
      if (out != nullptr) *out += c;
      continue;
    }
    if (pos_ >= text_.size()) return fail("unterminated escape");
    char decoded = 0;
    switch (text_[pos_++]) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return fail("bad \\u escape");
          }
        }
        // UTF-8 encode (basic multilingual plane only; surrogate pairs
        // are rejected to keep the implementation honest).
        if (code >= 0xD800 && code <= 0xDFFF) {
          return fail("surrogate pairs are not supported");
        }
        if (out == nullptr) continue;
        if (code < 0x80) {
          *out += static_cast<char>(code);
        } else if (code < 0x800) {
          *out += static_cast<char>(0xC0 | (code >> 6));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          *out += static_cast<char>(0xE0 | (code >> 12));
          *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        }
        continue;
      }
      default: return fail("invalid escape character");
    }
    if (out != nullptr) *out += decoded;
  }
  return fail("unterminated string");
}

bool JsonReader::scanKey(std::string_view* key) {
  // Keys without escapes are viewed in place; others are decoded.
  const std::size_t quote = pos_;
  std::size_t end = quote + 1;
  while (end < text_.size()) {
    const auto c = static_cast<unsigned char>(text_[end]);
    if (c == '"' || c == '\\' || c < 0x20) break;
    ++end;
  }
  if (end < text_.size() && text_[end] == '"') {
    *key = text_.substr(quote + 1, end - quote - 1);
    pos_ = end + 1;
    return true;
  }
  if (!scanString(&keyBuffer_)) return false;
  *key = keyBuffer_;
  return true;
}

bool JsonReader::skipValue() {
  Kind kind = Kind::Null;
  if (!peek(&kind)) return false;
  switch (kind) {
    case Kind::Null: return readNull();
    case Kind::Bool: {
      bool ignored = false;
      return readBool(&ignored);
    }
    case Kind::Number: {
      double ignored = 0.0;
      return readNumber(&ignored);
    }
    case Kind::String: return scanString(nullptr);
    case Kind::Array:
      if (!beginArray()) return false;
      while (nextElement()) {
        if (!skipValue()) return false;
      }
      return !failed();
    case Kind::Object: {
      if (!beginObject()) return false;
      std::string_view key;
      while (nextMember(&key)) {
        if (!skipValue()) return false;
      }
      return !failed();
    }
  }
  return false;
}

bool JsonReader::beginObject() {
  if (!atValue()) return false;
  TPRM_DCHECK(text_[pos_] == '{', "beginObject() on a non-object value");
  ++pos_;
  if (++depth_ > maxDepth_) return fail("nesting too deep");
  first_ = true;
  return true;
}

bool JsonReader::nextMember(std::string_view* key) {
  if (error_ != nullptr) return false;
  skipWhitespace();
  if (first_) {
    first_ = false;
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      return false;
    }
  } else {
    if (pos_ >= text_.size()) return fail("unterminated object");
    if (text_[pos_] == '}') {
      ++pos_;
      --depth_;
      return false;
    }
    if (text_[pos_] != ',') return fail("expected ',' or '}' in object");
    ++pos_;
    skipWhitespace();
  }
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return fail("expected object key");
  }
  if (!scanKey(key)) return false;
  skipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return fail("expected ':' after key");
  }
  ++pos_;
  return true;
}

bool JsonReader::beginArray() {
  if (!atValue()) return false;
  TPRM_DCHECK(text_[pos_] == '[', "beginArray() on a non-array value");
  ++pos_;
  if (++depth_ > maxDepth_) return fail("nesting too deep");
  first_ = true;
  return true;
}

bool JsonReader::nextElement() {
  if (error_ != nullptr) return false;
  skipWhitespace();
  if (first_) {
    first_ = false;
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      return false;
    }
    return true;
  }
  if (pos_ >= text_.size()) return fail("unterminated array");
  if (text_[pos_] == ']') {
    ++pos_;
    --depth_;
    return false;
  }
  if (text_[pos_] != ',') return fail("expected ',' or ']' in array");
  ++pos_;
  return true;
}

bool JsonReader::finish() {
  if (error_ != nullptr) return false;
  skipWhitespace();
  if (pos_ != text_.size()) return fail("trailing garbage after document");
  return true;
}

bool JsonField::read(JsonReader& reader) {
  if (!reader.peek(&kind)) return false;
  present = true;
  switch (kind) {
    case JsonReader::Kind::Number: return reader.readNumber(&number);
    case JsonReader::Kind::String: return reader.readString(&text);
    case JsonReader::Kind::Bool: return reader.readBool(&boolean);
    default: return reader.skipValue();
  }
}

bool readTree(JsonReader& reader, JsonValue& out) {
  JsonReader::Kind kind = JsonReader::Kind::Null;
  if (!reader.peek(&kind)) return false;
  switch (kind) {
    case JsonReader::Kind::Null:
      out = JsonValue(nullptr);
      return reader.readNull();
    case JsonReader::Kind::Bool: {
      bool b = false;
      if (!reader.readBool(&b)) return false;
      out = JsonValue(b);
      return true;
    }
    case JsonReader::Kind::Number: {
      double d = 0.0;
      if (!reader.readNumber(&d)) return false;
      out = JsonValue(d);
      return true;
    }
    case JsonReader::Kind::String: {
      std::string s;
      if (!reader.readString(&s)) return false;
      out = JsonValue(std::move(s));
      return true;
    }
    case JsonReader::Kind::Array: {
      JsonValue::Array array;
      if (!reader.beginArray()) return false;
      while (reader.nextElement()) {
        if (!readTree(reader, array.emplace_back())) return false;
      }
      if (reader.failed()) return false;
      out = JsonValue(std::move(array));
      return true;
    }
    case JsonReader::Kind::Object: {
      JsonValue::Object object;
      if (!reader.beginObject()) return false;
      std::string_view key;
      while (reader.nextMember(&key)) {
        std::string name(key);  // the view dies with the next key
        JsonValue value;
        if (!readTree(reader, value)) return false;
        object[std::move(name)] = std::move(value);
      }
      if (reader.failed()) return false;
      out = JsonValue(std::move(object));
      return true;
    }
  }
  return false;
}

JsonParseResult parseJson(const std::string& text,
                          const JsonParseOptions& options = {}) {
  JsonReader reader(text, options);
  JsonParseResult result;
  JsonValue value;
  if (readTree(reader, value) && reader.finish()) {
    result.value = std::move(value);
    return result;
  }
  result.error = reader.error();
  result.errorOffset = reader.errorOffset();
  return result;
}

// The readers below capture an object's members while reading it, then run
// their checks in a fixed order, so the first error reported does not
// depend on the member order in the document.  Each returns its first
// error ("" when none).  Location strings are built only for an error.

std::string chainWhere(std::size_t c) {
  return "chains[" + std::to_string(c) + "]";
}

std::string taskWhere(std::size_t c, std::size_t k) {
  return chainWhere(c) + ".tasks[" + std::to_string(k) + "]";
}

std::string readTask(JsonReader& reader, std::size_t c, std::size_t k,
                     TaskSpec* task) {
  if (!reader.nextIs(JsonReader::Kind::Object)) {
    if (!reader.skipValue()) return {};
    return taskWhere(c, k) + " must be an object";
  }
  static constexpr std::array<std::string_view, 6> kNames = {
      "name", "processors", "duration", "deadline", "quality",
      "maxConcurrency"};
  std::array<JsonField, kNames.size()> f;
  auto& [name, processors, duration, deadline, quality, maxConcurrency] = f;
  reader.beginObject();
  std::string_view key;
  while (reader.nextMember(&key)) readMember(reader, key, kNames, f);
  if (reader.failed()) return {};

  const auto at = [&](const char* what) { return taskWhere(c, k) + what; };
  if (name.present) {
    if (!name.isString()) return at(".name must be a string");
    task->name = std::move(name.text);
  }
  if (!processors.isNumber()) return at(".processors must be a number");
  if (!castFits<int>(processors.number)) {
    return at(".processors is out of range");
  }
  task->request.processors = static_cast<int>(processors.number);
  if (!duration.isNumber()) return at(".duration must be a number");
  if (duration.number <= 0.0) return at(".duration must be positive");
  if (!unitsFitTicks(duration.number)) return at(".duration is out of range");
  task->request.duration = ticksFromUnits(duration.number);
  if (deadline.present) {
    if (!deadline.isNumber()) return at(".deadline must be a number");
    if (!unitsFitTicks(deadline.number)) {
      return at(".deadline is out of range");
    }
    task->relativeDeadline = ticksFromUnits(deadline.number);
  }
  if (quality.present) {
    if (!quality.isNumber()) return at(".quality must be a number");
    task->quality = quality.number;
  }
  if (maxConcurrency.present) {
    if (!maxConcurrency.isNumber()) {
      return at(".maxConcurrency must be a number");
    }
    if (!castFits<int>(maxConcurrency.number)) {
      return at(".maxConcurrency is out of range");
    }
    std::int64_t work = 0;
    if (__builtin_mul_overflow(std::int64_t{task->request.processors},
                               task->request.duration, &work)) {
      return at(": processors x duration is out of range");
    }
    task->malleable =
        MalleableSpec{work, static_cast<int>(maxConcurrency.number)};
  }
  return {};
}

/// Reads a chain's "bindings" object into `bindings`; `bad` collects the
/// parameters that fail, each with the tail of its message.  Both are
/// maps, so a repeated parameter keeps only its last value and the error
/// reported is that of the first bad parameter in key order.
void readBindings(JsonReader& reader,
                  std::map<std::string, std::int64_t>* bindings,
                  std::map<std::string, const char*>* bad) {
  reader.beginObject();
  std::string_view key;
  while (reader.nextMember(&key)) {
    std::string param(key);
    JsonField bound;
    bound.read(reader);
    const char* problem = nullptr;
    if (!bound.isNumber() || bound.number != std::floor(bound.number)) {
      problem = " must be an integer";
    } else if (!castFits<std::int64_t>(bound.number)) {
      problem = " is out of range";
    }
    if (problem != nullptr) {
      bindings->erase(param);
      (*bad)[std::move(param)] = problem;
    } else {
      bad->erase(param);
      (*bindings)[std::move(param)] = static_cast<std::int64_t>(bound.number);
    }
  }
}

std::string readChain(JsonReader& reader, std::size_t c, Chain* chain) {
  if (!reader.nextIs(JsonReader::Kind::Object)) {
    if (!reader.skipValue()) return {};
    return chainWhere(c) + " must be an object";
  }
  JsonField name;
  bool bindingsPresent = false;
  bool bindingsIsObject = false;
  std::map<std::string, const char*> badBindings;
  bool tasksIsArray = false;
  std::string tasksError;
  reader.beginObject();
  std::string_view key;
  while (reader.nextMember(&key)) {
    if (key == "name") {
      name.read(reader);
    } else if (key == "bindings") {
      bindingsPresent = true;
      chain->bindings.clear();
      badBindings.clear();
      bindingsIsObject = reader.nextIs(JsonReader::Kind::Object);
      if (bindingsIsObject) {
        readBindings(reader, &chain->bindings, &badBindings);
      } else {
        reader.skipValue();
      }
    } else if (key == "tasks") {
      chain->tasks.clear();
      tasksError.clear();
      tasksIsArray = reader.nextIs(JsonReader::Kind::Array);
      if (!tasksIsArray) {
        reader.skipValue();
        continue;
      }
      reader.beginArray();
      for (std::size_t k = 0; reader.nextElement(); ++k) {
        if (!tasksError.empty()) {
          reader.skipValue();
          continue;
        }
        TaskSpec task;
        tasksError = readTask(reader, c, k, &task);
        chain->tasks.push_back(std::move(task));
      }
    } else {
      reader.skipValue();
    }
  }
  if (reader.failed()) return {};

  if (name.present) {
    if (!name.isString()) return chainWhere(c) + ".name must be a string";
    chain->name = std::move(name.text);
  }
  if (bindingsPresent) {
    if (!bindingsIsObject) return chainWhere(c) + ".bindings must be an object";
    if (!badBindings.empty()) {
      const auto& [param, problem] = *badBindings.begin();
      return chainWhere(c) + ".bindings." + param + problem;
    }
  }
  if (!tasksIsArray) return chainWhere(c) + ".tasks must be an array";
  return tasksError;
}

SpecParseResult specError(std::string what) {
  SpecParseResult result;
  result.error = std::move(what);
  return result;
}

SpecParseResult readJobSpec(JsonReader& reader) {
  if (!reader.nextIs(JsonReader::Kind::Object)) {
    if (!reader.skipValue()) return {};
    return specError("top level must be an object");
  }
  TunableJobSpec spec;
  JsonField name, composition;
  bool chainsIsArray = false;
  std::string chainsError;
  reader.beginObject();
  std::string_view key;
  while (reader.nextMember(&key)) {
    if (key == "name") {
      name.read(reader);
    } else if (key == "qualityComposition") {
      composition.read(reader);
    } else if (key == "chains") {
      spec.chains.clear();
      chainsError.clear();
      chainsIsArray = reader.nextIs(JsonReader::Kind::Array);
      if (!chainsIsArray) {
        reader.skipValue();
        continue;
      }
      reader.beginArray();
      for (std::size_t c = 0; reader.nextElement(); ++c) {
        if (!chainsError.empty()) {
          reader.skipValue();
          continue;
        }
        Chain chain;
        chainsError = readChain(reader, c, &chain);
        spec.chains.push_back(std::move(chain));
      }
    } else {
      reader.skipValue();
    }
  }
  if (reader.failed()) return {};

  if (name.present) {
    if (!name.isString()) return specError("'name' must be a string");
    spec.name = std::move(name.text);
  }
  if (composition.present) {
    if (!composition.isString()) {
      return specError("'qualityComposition' must be a string");
    }
    if (composition.text == "minimum") {
      spec.qualityComposition = QualityComposition::Minimum;
    } else if (composition.text == "multiplicative") {
      spec.qualityComposition = QualityComposition::Multiplicative;
    } else {
      return specError("unknown qualityComposition '" + composition.text + "'");
    }
  }
  if (!chainsIsArray) return specError("'chains' must be an array");
  if (!chainsError.empty()) return specError(std::move(chainsError));

  const auto errors = validate(spec);
  if (!errors.empty()) return specError("invalid spec: " + errors.front());
  SpecParseResult result;
  result.spec = std::move(spec);
  return result;
}

SpecParseResult jobSpecFromJson(const std::string& text) {
  JsonReader reader(text);
  auto result = readJobSpec(reader);
  if (!reader.finish()) {
    return specError("JSON error at byte " + std::to_string(reader.errorOffset()) +
                ": " + reader.error());
  }
  return result;
}

std::string outOfRange(const char* key) {
  return std::string("field '") + key + "' is out of range";
}

/// Field checks over captured members: remembers the first error so call
/// sites stay linear.
class Checker {
 public:
  [[nodiscard]] bool failed() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  double number(const JsonField& f, const char* key, bool required = true,
                double fallback = 0) {
    if (!f.present) {
      if (required) fail(std::string("missing field '") + key + "'");
      return fallback;
    }
    if (!f.isNumber()) {
      fail(std::string("field '") + key + "' must be a number");
      return fallback;
    }
    return f.number;
  }

  std::uint64_t id(const JsonField& f, const char* key, bool required = true) {
    const double d = number(f, key, required);
    if (failed()) return 0;
    if (d < 0 || d != std::floor(d)) {
      fail(std::string("field '") + key + "' must be a non-negative integer");
      return 0;
    }
    if (!castFits<std::uint64_t>(d)) {
      fail(outOfRange(key));
      return 0;
    }
    return static_cast<std::uint64_t>(d);
  }

  std::uint32_t u32(const JsonField& f, const char* key,
                    bool required = true) {
    const std::uint64_t value = id(f, key, required);
    if (value > std::numeric_limits<std::uint32_t>::max()) {
      fail(outOfRange(key));
      return 0;
    }
    return static_cast<std::uint32_t>(value);
  }

  /// An int field; a fraction truncates.
  int integer(const JsonField& f, const char* key) {
    const double d = number(f, key);
    if (!castFits<int>(d)) {
      fail(outOfRange(key));
      return 0;
    }
    return static_cast<int>(d);
  }

  /// A time in paper units, converted to ticks.
  Time time(const JsonField& f, const char* key, bool required = true) {
    const double d = number(f, key, required);
    if (!unitsFitTicks(d)) {
      fail(outOfRange(key));
      return 0;
    }
    return ticksFromUnits(d);
  }

  std::string string(JsonField& f, const char* key) {
    if (!f.isString()) {
      fail(std::string("field '") + key + "' must be a string");
      return {};
    }
    return std::move(f.text);
  }

  bool boolean(const JsonField& f, const char* key) {
    if (!f.isBool()) {
      fail(std::string("field '") + key + "' must be a boolean");
      return false;
    }
    return f.boolean;
  }

  void fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
  }

 private:
  std::string error_;
};

std::string jsonError(const JsonReader& reader) {
  return "JSON error at byte " + std::to_string(reader.errorOffset()) + ": " +
         reader.error();
}

RequestParseResult decodeRequest(const std::string& text) {
  static constexpr std::array<std::string_view, 8> kNames = {
      "v",     "id",         "cmd",  "release",
      "jobId", "processors", "when", "window"};
  RequestParseResult result;
  JsonReader reader(text);
  std::array<JsonField, kNames.size()> f;
  auto& [v, id, cmdField, release, jobId, processors, when, window] = f;
  bool specPresent = false;
  task::SpecParseResult spec;
  const bool isObject = reader.nextIs(JsonReader::Kind::Object);
  if (isObject) {
    reader.beginObject();
    std::string_view key;
    while (reader.nextMember(&key)) {
      if (key == "spec") {
        specPresent = true;
        spec = readJobSpec(reader);
      } else {
        readMember(reader, key, kNames, f);
      }
    }
  } else {
    reader.skipValue();
  }
  if (!reader.finish()) {
    result.error = jsonError(reader);
    return result;
  }
  if (!isObject) {
    result.error = "request must be an object";
    return result;
  }
  Checker r;
  Request request;
  const auto version = r.id(v, "v");
  request.id = r.id(id, "id");
  const auto cmd = r.string(cmdField, "cmd");
  if (r.failed()) {
    result.error = r.error();
    return result;
  }
  if (version != kProtocolVersion && version != kProtocolVersionV2) {
    result.error = "unsupported protocol version " + std::to_string(version);
    return result;
  }
  request.version = static_cast<std::uint32_t>(version);
  if (cmd == "NEGOTIATE") {
    request.command = Command::Negotiate;
    NegotiateRequest payload;
    payload.release = r.time(release, "release", false);
    if (!specPresent) {
      result.error = "NEGOTIATE requires a 'spec' object";
      return result;
    }
    if (!spec.ok()) {
      result.error = "bad spec: " + spec.error;
      return result;
    }
    payload.spec = std::move(*spec.spec);
    request.payload = std::move(payload);
  } else if (cmd == "CANCEL") {
    request.command = Command::Cancel;
    CancelRequest payload;
    payload.jobId = r.id(jobId, "jobId");
    request.payload = payload;
  } else if (cmd == "RESIZE") {
    request.command = Command::Resize;
    ResizeRequest payload;
    payload.processors = r.integer(processors, "processors");
    payload.when = r.time(when, "when", false);
    request.payload = payload;
  } else if (cmd == "STATS") {
    request.command = Command::Stats;
  } else if (cmd == "VERIFY") {
    request.command = Command::Verify;
  } else if (cmd == "HELLO") {
    if (request.version < kProtocolVersionV2) {
      result.error = "HELLO requires protocol version 2";
      return result;
    }
    request.command = Command::Hello;
    HelloRequest payload;
    const auto granted = r.u32(window, "window", false);
    payload.window = granted == 0 ? 1 : granted;
    request.payload = payload;
  } else {
    result.error = "unknown command '" + cmd + "'";
    return result;
  }
  if (r.failed()) {
    result.error = r.error();
    return result;
  }
  result.request = std::move(request);
  return result;
}

}  // namespace legacy

// --- Corpus ------------------------------------------------------------------

/// Requests and responses of every scenario family's stream: NEGOTIATE
/// frames as a client sends them, the other commands, and responses a
/// daemon could send (admissions with placements and bindings, rejections,
/// RESHAPED pushes, results of the other commands, errors).
struct Corpus {
  std::vector<std::string> requests;
  std::vector<std::string> responses;
  std::vector<std::string> specs;  // spec files (the schema of spec_io.h)
};

std::vector<sched::TaskPlacement> placementsOf(const task::Chain& chain,
                                               Time release) {
  std::vector<sched::TaskPlacement> placements;
  Time at = release;
  for (const auto& t : chain.tasks) {
    const Time deadline = t.relativeDeadline < kTimeInfinity
                              ? release + t.relativeDeadline
                              : kTimeInfinity;
    placements.push_back({TimeInterval{at, at + t.request.duration},
                          t.request.processors, deadline});
    at += t.request.duration;
  }
  return placements;
}

const Corpus& corpus() {
  static const Corpus built = [] {
    Corpus c;
    constexpr std::size_t kJobs = 120;
    for (const auto& family : workload::scenarioNames()) {
      const auto params = workload::scenarioByName(family, /*seed=*/5, kJobs);
      const auto scenario = workload::ScenarioGenerator(*params).generate();
      for (std::size_t i = 0; i < scenario.jobs.size(); ++i) {
        const auto& job = scenario.jobs[i];
        Request request;
        request.id = job.id;
        request.version = i % 2 == 0 ? kProtocolVersion : kProtocolVersionV2;
        request.command = Command::Negotiate;
        request.payload = NegotiateRequest{job.spec, job.release};
        c.requests.push_back(encodeRequest(request));
        c.specs.push_back(task::toJson(job.spec));

        const std::size_t chainIndex = i % job.spec.chains.size();
        const auto& chain = job.spec.chains[chainIndex];
        Response response;
        response.id = job.id;
        response.ok = true;
        if (i % 5 == 4) {
          ReshapeEvent event;
          event.jobId = job.id;
          event.promotion = i % 2 == 0;
          event.fromChain = chainIndex;
          event.toChain = (chainIndex + 1) % job.spec.chains.size();
          event.fromQuality = chain.quality(job.spec.qualityComposition);
          event.toQuality = job.spec.chains[event.toChain].quality(
              job.spec.qualityComposition);
          event.placements = placementsOf(chain, job.release);
          response.id = 0;
          response.result = ReshapedPush{{event}};
        } else {
          NegotiateResult result;
          result.admitted = i % 3 != 2;
          result.jobId = job.id;
          result.arrivalSeq = i;
          result.release = job.release;
          result.chainsConsidered = static_cast<int>(job.spec.chains.size());
          result.chainsSchedulable = result.admitted ? 1 : 0;
          if (result.admitted) {
            result.chainIndex = chainIndex;
            result.quality = chain.quality(job.spec.qualityComposition);
            result.placements = placementsOf(chain, job.release);
            result.bindings = chain.bindings;
          }
          response.result = std::move(result);
          if (i % 4 == 3) response.advertisedWindow = 4;
        }
        c.responses.push_back(encodeResponse(response));
      }
    }
    Request other;
    other.version = kProtocolVersionV2;
    other.command = Command::Cancel;
    other.payload = CancelRequest{42};
    c.requests.push_back(encodeRequest(other));
    other.command = Command::Resize;
    other.payload = ResizeRequest{48, ticksFromUnits(125.5)};
    c.requests.push_back(encodeRequest(other));
    other.command = Command::Hello;
    other.payload = HelloRequest{32};
    c.requests.push_back(encodeRequest(other));
    other.command = Command::Stats;
    other.payload = std::monostate{};
    c.requests.push_back(encodeRequest(other));

    Response response;
    response.id = 9;
    response.ok = true;
    response.result = StatsResult{32, ticksFromUnits(12.25), 7, 3, 11, 4};
    c.responses.push_back(encodeResponse(response));
    response.result = ResizeResult{32, 48, {1, 2}, {3}, {4, 5}};
    c.responses.push_back(encodeResponse(response));
    response.result = VerifyResult{false, "overlap at t=3", 2};
    c.responses.push_back(encodeResponse(response));
    response.result = HelloResult{kProtocolVersionV2, 16};
    c.responses.push_back(encodeResponse(response));
    response.result = CancelResult{ticksFromUnits(3.5)};
    c.responses.push_back(encodeResponse(response));
    c.responses.push_back(encodeResponse(
        makeError(3, "bad_request", "tab\there, quote \" and \\u0001")));
    return c;
  }();
  return built;
}

/// Number tokens of every shape the grammar scan accepts or nearly does:
/// plain decimals short and long (the reader's fast path and its
/// fallback), leading zeros, signs, exponents, out-of-range values and
/// malformed ones.
std::string numberToken(std::mt19937_64& rng) {
  static const char* const kFixed[] = {
      "0",   "-0",      "-0.0",     "00012.5000", "1.",   ".5",   "-.5",
      "-",   "1e5",     "1E-5",     "2.5e+3",     "1e",   "1e+",  "1e999",
      "-1e999", "4.9e-324", "1e-400", "0.1e1",    "--1",  "1.2.3", "9007199254740993",
      "123456789012345", "1234567890123456", "0.000000000000001",
      "179769313486231570000000000000000000000000000000000000000000000000000"
      "000000000000000000000000000000000000000000000000000000000000000000000"
      "000000000000000000000000000000000000000000000000000000000000000000000"
      "000000000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000"};
  if (rng() % 4 == 0) return kFixed[rng() % std::size(kFixed)];
  std::string token;
  if (rng() % 3 == 0) token += '-';
  const auto digits = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      token += static_cast<char>('0' + rng() % 10);
    }
  };
  digits(rng() % 20);
  if (rng() % 2 == 0) {
    token += '.';
    digits(rng() % 20);
  }
  if (rng() % 6 == 0) {
    token += rng() % 2 == 0 ? 'e' : 'E';
    if (rng() % 2 == 0) token += rng() % 2 == 0 ? '-' : '+';
    digits(rng() % 4);
  }
  return token;
}

/// Copies of `text` with random truncations, byte flips, whitespace
/// changes and replaced number tokens.
std::vector<std::string> mutations(const std::string& text,
                                   std::mt19937_64& rng) {
  static const std::string kBytes = "{}[]\",:0123456789-.eE+tfnul \t\n\r\\\x01";
  static const char* const kSpaces[] = {" ", "\t", "\r\n", "\n        ",
                                        "         "};
  std::vector<std::string> out = {text};
  const std::size_t n = text.size();
  for (int i = 0; i < 3; ++i) out.push_back(text.substr(0, rng() % (n + 1)));
  for (int i = 0; i < 4; ++i) {
    std::string flipped = text;
    const std::size_t at = rng() % n;
    flipped[at] = i == 3 ? static_cast<char>(rng() % 256)
                         : kBytes[rng() % kBytes.size()];
    out.push_back(std::move(flipped));
  }
  for (int i = 0; i < 3; ++i) {
    std::string spaced = text;
    spaced.insert(rng() % (n + 1), kSpaces[rng() % std::size(kSpaces)]);
    out.push_back(std::move(spaced));
  }
  // Every indentation run removed, or turned into tabs.
  std::string flat, tabbed;
  for (std::size_t i = 0; i < n; ++i) {
    const bool indent = text[i] == ' ' && i > 0 &&
                        (text[i - 1] == '\n' || text[i - 1] == ' ');
    if (!indent) flat += text[i];
    tabbed += indent ? '\t' : text[i];
  }
  out.push_back(std::move(flat));
  out.push_back(std::move(tabbed));
  // One number token replaced.
  for (std::size_t start = rng() % n; start < n; ++start) {
    if (text[start] < '0' || text[start] > '9') continue;
    std::size_t end = start;
    while (end < n && std::string_view("0123456789.eE+-").find(text[end]) !=
                          std::string_view::npos) {
      ++end;
    }
    while (start > 0 && text[start - 1] == '-') --start;
    std::string replaced = text;
    replaced.replace(start, end - start, numberToken(rng));
    out.push_back(std::move(replaced));
    break;
  }
  return out;
}

// --- Comparisons -------------------------------------------------------------

/// Same tree (or same error at the same offset) as the oracle's parser, and
/// the same outcome when the document is only skipped.
void expectSameParse(const std::string& text) {
  const auto now = parseJson(text);
  const auto before = legacy::parseJson(text);
  ASSERT_EQ(now.ok(), before.ok()) << text;
  if (now.ok()) {
    EXPECT_EQ(*now.value, *before.value) << text;
    // == treats -0 and 0 alike; the canonical form does not.
    EXPECT_EQ(now.value->dump(), before.value->dump()) << text;
  } else {
    EXPECT_EQ(now.error, before.error) << text;
    EXPECT_EQ(now.errorOffset, before.errorOffset) << text;
  }
  JsonReader reader(text);
  legacy::JsonReader oracle(text);
  const bool skipped = reader.skipValue() && reader.finish();
  ASSERT_EQ(skipped, oracle.skipValue() && oracle.finish()) << text;
  EXPECT_STREQ(reader.error(), oracle.error()) << text;
  EXPECT_EQ(reader.errorOffset(), oracle.errorOffset()) << text;
}

TEST(DecodeEquivalence, RequestFramesDecodeAsBefore) {
  std::mt19937_64 rng(23);
  std::size_t decoded = 0, refused = 0;
  for (const auto& frame : corpus().requests) {
    for (const auto& text : mutations(frame, rng)) {
      expectSameParse(text);
      const auto now = decodeRequest(text);
      const auto before = legacy::decodeRequest(text);
      ASSERT_EQ(now.ok(), before.ok()) << text;
      if (now.ok()) {
        EXPECT_EQ(*now.request, *before.request) << text;
        ++decoded;
      } else {
        EXPECT_EQ(now.error, before.error) << text;
        ++refused;
      }
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(decoded, 1000u);
  EXPECT_GT(refused, 1000u);
}

TEST(DecodeEquivalence, SpecFilesDecodeAsBefore) {
  std::mt19937_64 rng(29);
  std::size_t decoded = 0;
  for (const auto& spec : corpus().specs) {
    for (const auto& text : mutations(spec, rng)) {
      const auto now = task::jobSpecFromJson(text);
      const auto before = legacy::jobSpecFromJson(text);
      ASSERT_EQ(now.ok(), before.ok()) << text;
      if (now.ok()) {
        EXPECT_EQ(*now.spec, *before.spec) << text;
        ++decoded;
      } else {
        EXPECT_EQ(now.error, before.error) << text;
      }
    }
  }
  EXPECT_GT(decoded, 1000u);
}

TEST(DecodeEquivalence, ResponseFramesParseAsBefore) {
  std::mt19937_64 rng(31);
  for (const auto& frame : corpus().responses) {
    ASSERT_TRUE(decodeResponse(frame).ok()) << frame;
    for (const auto& text : mutations(frame, rng)) {
      expectSameParse(text);
      const auto before = legacy::parseJson(text);
      if (!before.ok()) {
        const auto now = decodeResponse(text);
        ASSERT_FALSE(now.ok()) << text;
        EXPECT_EQ(now.error, "JSON error at byte " +
                                 std::to_string(before.errorOffset) + ": " +
                                 before.error)
            << text;
      }
    }
  }
}

TEST(DecodeEquivalence, NumberTokensReadAsBefore) {
  std::mt19937_64 rng(37);
  for (int i = 0; i < 200000; ++i) {
    const std::string token = numberToken(rng);
    expectSameParse(token);
    expectSameParse("[" + token + ", " + token + "]");
  }
}

}  // namespace
}  // namespace tprm::service
