#include "common/json.h"

#include <charconv>
#include <cmath>

#include "common/check.h"

namespace tprm {

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

bool JsonValue::asBool() const {
  TPRM_CHECK(isBool(), "JSON value is not a boolean");
  return std::get<bool>(value_);
}

double JsonValue::asNumber() const {
  TPRM_CHECK(isNumber(), "JSON value is not a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::asString() const {
  TPRM_CHECK(isString(), "JSON value is not a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::asArray() const {
  TPRM_CHECK(isArray(), "JSON value is not an array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::asObject() const {
  TPRM_CHECK(isObject(), "JSON value is not an object");
  return std::get<Object>(value_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!isObject()) return nullptr;
  const auto& object = std::get<Object>(value_);
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

void appendEscaped(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of literal bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHexDigits[c >> 4];
        out += kHexDigits[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

/// Magnitude from which integral values print in "%.17g" form.
constexpr double kIntegralLimit = 1e15;

void appendNumber(std::string& out, double d) {
  char buffer[32];
  char* end = nullptr;
  if (d == std::floor(d) && std::abs(d) < kIntegralLimit) {
    // Integral values print without a fractional part ("%.0f").
    if (d == 0.0 && std::signbit(d)) {
      out += "-0";
      return;
    }
    end = std::to_chars(buffer, buffer + sizeof buffer,
                        static_cast<std::int64_t>(d))
              .ptr;
  } else {
    // to_chars with a precision prints exactly what "%.17g" prints.
    end = std::to_chars(buffer, buffer + sizeof buffer, d,
                        std::chars_format::general, 17)
              .ptr;
  }
  out.append(buffer, end);
}

}  // namespace

void JsonWriter::separate(Level& level) {
  if (style_ == Style::Pretty) {
    out_ += level.empty ? "\n" : ",\n";
    out_.append(levels_.size() * 2, ' ');
  } else if (!level.empty) {
    out_ += ',';
  }
  level.empty = false;
}

void JsonWriter::beginValue() {
  if (levels_.empty()) return;
  Level& level = levels_.back();
  // An object member's separator went out with its key.
  if (level.array) separate(level);
}

void JsonWriter::close(char bracket) {
  TPRM_DCHECK(!levels_.empty() && levels_.back().array == (bracket == ']'),
              "unbalanced JSON container");
  const bool empty = levels_.back().empty;
  levels_.pop_back();
  if (!empty && style_ == Style::Pretty) {
    out_ += '\n';
    out_.append(levels_.size() * 2, ' ');
  }
  out_ += bracket;
}

void JsonWriter::beginObject() {
  beginValue();
  out_ += '{';
  levels_.push_back(Level{false, true, {}});
}

void JsonWriter::endObject() { close('}'); }

void JsonWriter::beginArray() {
  beginValue();
  out_ += '[';
  levels_.push_back(Level{true, true, {}});
}

void JsonWriter::endArray() { close(']'); }

JsonWriter& JsonWriter::key(std::string_view name) {
  TPRM_DCHECK(!levels_.empty() && !levels_.back().array,
              "JSON key outside an object");
  Level& level = levels_.back();
#ifndef NDEBUG
  TPRM_DCHECK(level.empty || std::string_view(level.lastKey) < name,
              "JSON object keys must be written in ascending order");
  level.lastKey.assign(name);
#endif
  separate(level);
  appendEscaped(out_, name);
  out_ += style_ == Style::Pretty ? ": " : ":";
  return *this;
}

void JsonWriter::null() {
  beginValue();
  out_ += "null";
}

void JsonWriter::boolean(bool b) {
  beginValue();
  out_ += b ? "true" : "false";
}

void JsonWriter::number(double d) {
  beginValue();
  appendNumber(out_, d);
}

void JsonWriter::integer(std::int64_t i) {
  constexpr auto kLimit = static_cast<std::int64_t>(kIntegralLimit);
  if (i <= -kLimit || i >= kLimit) {
    number(static_cast<double>(i));
    return;
  }
  beginValue();
  char buffer[24];
  out_.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, i).ptr);
}

void JsonWriter::string(std::string_view s) {
  beginValue();
  appendEscaped(out_, s);
}

void JsonValue::writeTo(JsonWriter& writer) const {
  if (isNull()) {
    writer.null();
  } else if (isBool()) {
    writer.boolean(asBool());
  } else if (isNumber()) {
    writer.number(asNumber());
  } else if (isString()) {
    writer.string(asString());
  } else if (isArray()) {
    writer.beginArray();
    for (const auto& element : asArray()) element.writeTo(writer);
    writer.endArray();
  } else {
    writer.beginObject();
    for (const auto& [key, value] : asObject()) {
      writer.key(key);
      value.writeTo(writer);
    }
    writer.endObject();
  }
}

std::string JsonValue::dump() const {
  std::string out;
  JsonWriter writer(out);
  writeTo(writer);
  return out;
}

std::string JsonValue::dumpCompact() const {
  std::string out;
  JsonWriter writer(out, JsonWriter::Style::Compact);
  writeTo(writer);
  return out;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Tree parser
// ---------------------------------------------------------------------------

namespace {

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

}  // namespace

JsonParseResult parseJson(const std::string& text,
                          const JsonParseOptions& options) {
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

}  // namespace tprm
