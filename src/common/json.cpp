#include "common/json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>

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

constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

/// A line break with a comma in front and indentation behind.  A separator
/// and the indentation after it are one fixed-size copy out of it (the
/// cursor then advances by the actual length), so no call is made for any
/// depth up to kShortIndent / 2.
constexpr std::string_view kBreak =
    ",\n                                                                "
    "                                                                ";
constexpr std::size_t kBreakCopy = 32;
constexpr std::size_t kShortIndent = kBreakCopy - 2;

/// Magnitude from which integral values print in "%.17g" form.
constexpr double kIntegralLimit = 1e15;

/// Spare room the writer adds at least whenever it grows the string.
constexpr std::size_t kGrowChunk = 256;

// --- The "%.17g" printer -------------------------------------------------
//
// For |d| = m * 2^e2 in [2^kMinExp2, 2^(kMaxExp2 + 1)) -- about [9.5e-7,
// 7.2e16) -- the 17 significant digits are round-half-even(d * 10^k) for the
// k that puts that integer in [10^16, 10^17).  d * 10^k = m * 5^k * 2^(e2+k)
// is exact in 128 bits (m < 2^53, 5^k < 2^56), so one shift with
// round-half-even gives exactly the digits printf derives from the exact
// binary value.  Other magnitudes go to std::to_chars.

constexpr int kMinExp2 = -20;
constexpr int kMaxExp2 = 55;
/// Largest k the fast path scales by: 16 - floor(log10(2^kMinExp2)) + 1.
constexpr int kMaxScale = 24;

constexpr std::array<std::uint64_t, kMaxScale + 1> kPow5 = [] {
  std::array<std::uint64_t, kMaxScale + 1> pow5{};
  pow5[0] = 1;
  for (std::size_t k = 1; k < pow5.size(); ++k) pow5[k] = pow5[k - 1] * 5;
  return pow5;
}();

constexpr std::uint64_t kPow10_16 = 10'000'000'000'000'000;
constexpr std::uint64_t kPow10_17 = 100'000'000'000'000'000;

/// round-half-even(m * 2^e2 * 10^k).
std::uint64_t scaleRounded(std::uint64_t m, int e2, int k) {
  using U128 = unsigned __int128;
  const U128 product = U128{m} * kPow5[static_cast<std::size_t>(k)];
  const int shift = e2 + k;
  if (shift >= 0) return static_cast<std::uint64_t>(product << shift);
  const int right = -shift;
  U128 quotient = product >> right;
  const U128 remainder = product - (quotient << right);
  const U128 half = U128{1} << (right - 1);
  if (remainder > half || (remainder == half && (quotient & 1) != 0)) {
    ++quotient;
  }
  return static_cast<std::uint64_t>(quotient);
}

/// Writes the 17 decimal digits of v (10^16 <= v < 10^17).
void put17Digits(char* out, std::uint64_t v) {
  for (int i = 16; i > 0; i -= 2) {
    const auto pair = static_cast<std::size_t>(v % 100) * 2;
    v /= 100;
    out[i - 1] = kDigitPairs[pair];
    out[i] = kDigitPairs[pair + 1];
  }
  out[0] = static_cast<char>('0' + v);
}

/// Copies the first `n` of the 17 digits in `d17` and returns the end.  The
/// copy is always 17 bytes (a fixed size needs no call); the caller's
/// buffer has room for them.
char* copyDigits(char* out, const char* d17, std::size_t n) {
  std::memcpy(out, d17, 17);
  return out + n;
}

}  // namespace

char* writeNumber17(char* out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  const int exp2 = static_cast<int>((bits >> 52) & 0x7FF) - 1023;
  if (exp2 < kMinExp2 || exp2 > kMaxExp2) {
    // to_chars with a precision prints exactly what "%.17g" prints.
    return std::to_chars(out, out + kNumber17Room, d,
                         std::chars_format::general, 17)
        .ptr;
  }
  if ((bits >> 63) != 0) *out++ = '-';
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e2 = exp2 - 52;
  // floor(exp2 * log10(2)) is d's decimal exponent or one below it, so k
  // starts at the right scale or one above; a rounding carry to 10^17 also
  // means one scale lower.
  int k = 16 - ((exp2 * 78913) >> 18);
  std::uint64_t digits = scaleRounded(m, e2, k);
  while (digits >= kPow10_17) digits = scaleRounded(m, e2, --k);
  TPRM_DCHECK(digits >= kPow10_16, "17-digit scale too small");

  char d17[2 * 17] = {};  // copyDigits reads 17 bytes from any digit
  put17Digits(d17, digits);
  auto kept = std::size_t{17};  // significant digits up to the last nonzero
  while (d17[kept - 1] == '0') --kept;
  const int exp10 = 16 - k;  // in [-7, 16] over the fast path's range
  if (exp10 < -4) {
    // "%e" form: d.ddde-0X.
    *out++ = d17[0];
    if (kept > 1) {
      *out++ = '.';
      out = copyDigits(out, d17 + 1, kept - 1);
    }
    *out++ = 'e';
    *out++ = '-';
    *out++ = '0';
    *out++ = static_cast<char>('0' - exp10);
    return out;
  }
  if (exp10 < 0) {
    // "%f" form below 1: 0.000ddd.
    *out++ = '0';
    *out++ = '.';
    for (int i = exp10 + 1; i < 0; ++i) *out++ = '0';
    return copyDigits(out, d17, kept);
  }
  const auto whole = static_cast<std::size_t>(exp10) + 1;
  out = copyDigits(out, d17, whole);
  if (kept > whole) {
    *out++ = '.';
    out = copyDigits(out, d17 + whole, kept - whole);
  }
  return out;
}

JsonWriter::JsonWriter(std::string& out, Style style)
    : out_(out), style_(style) {
  cursor_ = out_.data() + out_.size();
  end_ = cursor_;
  start_ = out_.size();
}

void JsonWriter::grow(std::size_t n) {
  const auto used = static_cast<std::size_t>(cursor_ - out_.data());
  // Doubles the document's share of the string, so growth stays amortised
  // however much the string held before the writer started.
  out_.resize(used + std::max({n, kGrowChunk, used - start_}));
  cursor_ = out_.data() + used;
  end_ = out_.data() + out_.size();
}

void JsonWriter::sync() {
  out_.resize(static_cast<std::size_t>(cursor_ - out_.data()));
  cursor_ = out_.data() + out_.size();
  end_ = cursor_;
}

void JsonWriter::putBreak(bool comma) {
  const std::size_t indent = static_cast<std::size_t>(depth_) * 2;
  const std::size_t head = comma ? 0 : 1;
  if (indent <= kShortIndent) {
    char* at = room(kBreakCopy);
    std::memcpy(at, kBreak.data() + head, kBreakCopy);
    cursor_ = at + (2 - head) + indent;
    return;
  }
  put(kBreak.substr(head, 2 - head));
  for (std::size_t left = indent; left > 0;) {
    const std::size_t n = std::min(left, kBreak.size() - 2);
    put(kBreak.substr(2, n));
    left -= n;
  }
}

void JsonWriter::escaped(std::string_view s) {
  char* at = room(s.size() + 2);
  *at++ = '"';
  // Scan and copy in one pass up to the first byte that needs an escape
  // (names and codes are short: a loop beats a memcpy call).
  std::size_t i = 0;
  for (; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c < 0x20 || c == '"' || c == '\\') break;
    at[i] = s[i];
  }
  cursor_ = at + i;
  for (; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      put(static_cast<char>(c));
      continue;
    }
    switch (c) {
      case '"': put("\\\""); break;
      case '\\': put("\\\\"); break;
      case '\b': put("\\b"); break;
      case '\f': put("\\f"); break;
      case '\n': put("\\n"); break;
      case '\r': put("\\r"); break;
      case '\t': put("\\t"); break;
      default: {
        const char code[] = {'\\', 'u', '0', '0', kHexDigits[c >> 4],
                             kHexDigits[c & 0xF]};
        put(std::string_view(code, sizeof code));
      }
    }
  }
  put('"');
}

void JsonWriter::separate(Level& current) {
  if (style_ == Style::Pretty) {
    putBreak(!current.empty);
  } else if (!current.empty) {
    put(',');
  }
  current.empty = false;
}

void JsonWriter::beginValue() {
  if (depth_ == 0) return;
  Level& current = level(depth_ - 1);
  // An object member's separator went out with its key.
  if (current.array) separate(current);
}

void JsonWriter::open(bool array, char bracket) {
  beginValue();
  put(bracket);
  if (depth_ >= kInlineDepth) deep_.emplace_back();
  level(depth_) = Level{array, true};
  ++depth_;
#ifndef NDEBUG
  lastKeys_.resize(static_cast<std::size_t>(depth_));
#endif
}

void JsonWriter::close(char bracket) {
  TPRM_DCHECK(depth_ > 0 && level(depth_ - 1).array == (bracket == ']'),
              "unbalanced JSON container");
  const bool empty = level(depth_ - 1).empty;
  --depth_;
  if (depth_ >= kInlineDepth) deep_.pop_back();
  if (!empty && style_ == Style::Pretty) putBreak(false);
  put(bracket);
  endValue();
}

void JsonWriter::beginObject() { open(false, '{'); }

void JsonWriter::endObject() { close('}'); }

void JsonWriter::beginArray() { open(true, '['); }

void JsonWriter::endArray() { close(']'); }

JsonWriter& JsonWriter::key(std::string_view name) {
  TPRM_DCHECK(depth_ > 0 && !level(depth_ - 1).array,
              "JSON key outside an object");
  Level& current = level(depth_ - 1);
#ifndef NDEBUG
  std::string& lastKey = lastKeys_[static_cast<std::size_t>(depth_ - 1)];
  TPRM_DCHECK(current.empty || std::string_view(lastKey) < name,
              "JSON object keys must be written in ascending order");
  lastKey.assign(name);
#endif
  separate(current);
  escaped(name);
  if (style_ == Style::Pretty) {
    put(": ");
  } else {
    put(':');
  }
  return *this;
}

void JsonWriter::null() {
  beginValue();
  put("null");
  endValue();
}

void JsonWriter::boolean(bool b) {
  beginValue();
  put(b ? std::string_view("true") : std::string_view("false"));
  endValue();
}

void JsonWriter::number(double d) {
  beginValue();
  char* at = room(kNumber17Room);
  if (std::abs(d) < kIntegralLimit) {
    const auto truncated = static_cast<std::int64_t>(d);
    if (static_cast<double>(truncated) == d) {
      // Integral values print without a fractional part ("%.0f").
      if (truncated == 0 && std::signbit(d)) {
        *at++ = '-';
        *at++ = '0';
      } else {
        at = std::to_chars(at, at + 24, truncated).ptr;
      }
      cursor_ = at;
      endValue();
      return;
    }
  }
  cursor_ = writeNumber17(at, d);
  endValue();
}

void JsonWriter::integer(std::int64_t i) {
  constexpr auto kLimit = static_cast<std::int64_t>(kIntegralLimit);
  if (i <= -kLimit || i >= kLimit) {
    number(static_cast<double>(i));
    return;
  }
  beginValue();
  char* at = room(24);
  cursor_ = std::to_chars(at, at + 24, i).ptr;
  endValue();
}

void JsonWriter::string(std::string_view s) {
  beginValue();
  escaped(s);
  endValue();
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

// The reader scans text a word at a time and takes the word's lowest byte
// as its first.
static_assert(std::endian::native == std::endian::little);

bool JsonReader::fail(const char* what) {
  if (error_ == nullptr) {
    error_ = what;
    errorOffset_ = pos_;
  }
  return false;
}

void JsonReader::skipWhitespaceRun() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
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
  return atValue() && scanNumber(out);
}

bool JsonReader::scanNumber(double* out) {
  // A plain decimal (digits, then optionally '.' and digits; no exponent)
  // of at most this many digits is valid and in range (zero, or 1e-300 <=
  // |value| < 1e300): skipping it needs no conversion.
  constexpr std::size_t kPlainDigits = 300;
  // A mantissa of at most this many digits is below 2^53, and so is the
  // power of ten: the quotient of two exact doubles rounds once, to the
  // value from_chars returns.
  constexpr std::size_t kExactDigits = 15;
  constexpr std::array<double, kExactDigits + 1> kPow10 = {
      1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
      1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};

  const char* const begin = text_.data() + pos_;
  const char* const end = text_.data() + text_.size();
  const char* p = begin;
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  std::uint64_t mantissa = 0;
  const char* const digits = p;
  while (p != end && *p >= '0' && *p <= '9') {
    mantissa = mantissa * 10 + static_cast<std::uint64_t>(*p - '0');
    ++p;
  }
  const auto whole = static_cast<std::size_t>(p - digits);
  std::size_t fraction = 0;
  bool plain = whole > 0;
  if (p != end && *p == '.') {
    const char* const first = ++p;
    while (p != end && *p >= '0' && *p <= '9') {
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(*p - '0');
      ++p;
    }
    fraction = static_cast<std::size_t>(p - first);
    plain = plain && fraction > 0;
  }
  if (p != end && (*p == 'e' || *p == 'E')) {
    plain = false;
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    while (p != end && *p >= '0' && *p <= '9') ++p;
  }
  pos_ = static_cast<std::size_t>(p - text_.data());
  if (p == begin || (negative && p == begin + 1)) {
    return fail("invalid number");
  }
  if (plain && whole + fraction <= kPlainDigits) {
    if (out == nullptr) return true;
    if (whole + fraction <= kExactDigits) {
      const double value = static_cast<double>(mantissa) / kPow10[fraction];
      *out = negative ? -value : value;
      return true;
    }
  }
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, p, value);
  if (ec != std::errc{} || ptr != p) return fail("invalid number");
  if (out != nullptr) *out = value;
  return true;
}

bool JsonReader::readString(std::string* out) {
  if (!atValue()) return false;
  TPRM_DCHECK(text_[pos_] == '"', "readString() on a non-string value");
  return scanString(out);
}

std::size_t JsonReader::plainRunEnd(std::size_t from) const {
  constexpr std::uint64_t kOnes = 0x0101010101010101;
  constexpr std::uint64_t kHighs = 0x8080808080808080;
  const auto zeroBytes = [](std::uint64_t x) {
    return (x - kOnes) & ~x & kHighs;
  };
  // Eight bytes at a time: a byte is special if it is '"', '\\' or below
  // 0x20 (the high bit of each such byte is set in `special`; a borrow can
  // only mark bytes after the first special one).
  while (text_.size() - from >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, text_.data() + from, sizeof word);
    const std::uint64_t special = zeroBytes(word ^ (kOnes * '"')) |
                                  zeroBytes(word ^ (kOnes * '\\')) |
                                  ((word - kOnes * 0x20) & ~word & kHighs);
    if (special != 0) {
      return from + static_cast<std::size_t>(std::countr_zero(special) / 8);
    }
    from += 8;
  }
  while (from < text_.size()) {
    const auto c = static_cast<unsigned char>(text_[from]);
    if (c == '"' || c == '\\' || c < 0x20) break;
    ++from;
  }
  return from;
}

bool JsonReader::scanString(std::string* out) {
  ++pos_;  // '"'
  // Fast path: copy the run up to the first escape in one go.
  const std::size_t start = pos_;
  pos_ = plainRunEnd(pos_);
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
  const std::size_t end = plainRunEnd(quote + 1);
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
    case Kind::Number: return scanNumber(nullptr);
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

namespace {

/// True iff the `n` bytes at `at` are spaces (n <= 16; 16 bytes readable).
/// Two overlapping word compares, no per-byte branch.
bool spacesAt(const char* at, std::size_t n) {
  constexpr std::uint64_t kEightSpaces = 0x2020202020202020;
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  std::memcpy(&head, at, sizeof head);
  std::memcpy(&tail, at + (n > 8 ? n - 8 : 0), sizeof tail);
  const std::uint64_t headMask =
      n >= 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * n)) - 1;
  const std::uint64_t tailMask = n > 8 ? ~std::uint64_t{0} : 0;
  return (((head ^ kEightSpaces) & headMask) |
          ((tail ^ kEightSpaces) & tailMask)) == 0;
}

}  // namespace

inline void JsonReader::skipBreak(int level) {
  // The pretty form puts "\n" and 2 * level spaces here: step over exactly
  // that when it is what follows, then over whatever whitespace remains.
  const auto indent = static_cast<std::size_t>(level) * 2;
  if (indent <= 16 && text_.size() - pos_ >= 17 && text_[pos_] == '\n' &&
      spacesAt(text_.data() + pos_ + 1, indent)) {
    pos_ += 1 + indent;
  }
  skipWhitespace();
}

bool JsonReader::nextMember(std::string_view* key) {
  if (error_ != nullptr) return false;
  if (first_) {
    first_ = false;
    skipBreak(depth_);
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      return false;
    }
  } else {
    skipBreak(depth_ - 1);  // before a closing '}'
    if (pos_ >= text_.size()) return fail("unterminated object");
    if (text_[pos_] == '}') {
      ++pos_;
      --depth_;
      return false;
    }
    if (text_[pos_] != ',') return fail("expected ',' or '}' in object");
    ++pos_;
    skipBreak(depth_);
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
  // The pretty form's ": ": the value's own skip then finds nothing.
  if (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
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
  if (first_) {
    first_ = false;
    skipBreak(depth_);
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      return false;
    }
    return true;
  }
  skipBreak(depth_ - 1);  // before a closing ']'
  if (pos_ >= text_.size()) return fail("unterminated array");
  if (text_[pos_] == ']') {
    ++pos_;
    --depth_;
    return false;
  }
  if (text_[pos_] != ',') return fail("expected ',' or ']' in array");
  ++pos_;
  skipBreak(depth_);
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
