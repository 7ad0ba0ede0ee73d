// Minimal JSON reader/writer (no external dependencies).
//
// Supports the JSON subset the library's serialization needs: objects,
// arrays, strings (with \" \\ \/ \b \f \n \r \t and \uXXXX escapes),
// numbers (doubles), booleans, and null.  Parsing is strict: trailing
// garbage, unterminated constructs, and invalid escapes are errors.
// Errors are reported with a byte offset rather than by aborting, so
// callers can reject malformed user files gracefully.
//
// Two layers share one grammar and one output form:
//
//  * JsonWriter / JsonReader stream a document straight to and from the
//    caller's own structs.  The wire codecs (service/protocol.cpp) and the
//    spec files (taskmodel/spec_io.cpp) use them, so no tree is built on
//    the hot path.
//  * JsonValue is a tree for documents whose shape is open-ended (metrics
//    snapshots, bench artifacts).  parseJson() builds it with JsonReader and
//    dump() / dumpCompact() print it with JsonWriter.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tprm {

class JsonWriter;

/// A parsed JSON value.  Objects preserve no duplicate keys (last wins) and
/// iterate in key order.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}                        // null
  JsonValue(std::nullptr_t) : value_(nullptr) {}          // NOLINT(runtime/explicit)
  JsonValue(bool b) : value_(b) {}                        // NOLINT(runtime/explicit)
  JsonValue(double d) : value_(d) {}                      // NOLINT(runtime/explicit)
  JsonValue(int i) : value_(static_cast<double>(i)) {}    // NOLINT(runtime/explicit)
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}    // NOLINT(runtime/explicit)
  JsonValue(std::string s) : value_(std::move(s)) {}      // NOLINT(runtime/explicit)
  JsonValue(Array a) : value_(std::move(a)) {}            // NOLINT(runtime/explicit)
  JsonValue(Object o) : value_(std::move(o)) {}           // NOLINT(runtime/explicit)

  [[nodiscard]] bool isNull() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool isBool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool isNumber() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool isString() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool isArray() const {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool isObject() const {
    return std::holds_alternative<Object>(value_);
  }

  /// Typed accessors; abort on type mismatch (check first, or use the
  /// lookup helpers below which produce descriptive errors).
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const Array& asArray() const;
  [[nodiscard]] const Object& asObject() const;

  /// Object field lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Serialises with 2-space indentation and sorted keys (stable output).
  [[nodiscard]] std::string dump() const;

  /// Serialises without any whitespace (sorted keys).  One value per line:
  /// the JSON-lines form used by periodic metric snapshots.
  [[nodiscard]] std::string dumpCompact() const;

  bool operator==(const JsonValue& other) const = default;

 private:
  void writeTo(JsonWriter& writer) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Parse outcome: a value or an error message with a byte offset.
struct JsonParseResult {
  std::optional<JsonValue> value;
  std::string error;       // empty on success
  std::size_t errorOffset = 0;

  [[nodiscard]] bool ok() const { return value.has_value(); }
};

/// Parser limits for untrusted input (wire frames, user files).  The depth
/// cap bounds the parser's recursion: without it a few kilobytes of "[[[["
/// can exhaust the stack.
struct JsonParseOptions {
  /// Maximum container nesting depth (top-level scalar = depth 0).
  int maxDepth = 64;
};

/// Parses a complete JSON document (rejects trailing garbage).
[[nodiscard]] JsonParseResult parseJson(const std::string& text,
                                        const JsonParseOptions& options = {});

/// Streaming writer of the canonical form: with Style::Pretty exactly the
/// bytes of JsonValue::dump() (2-space indent, ": " after keys, one member
/// or element per line, "{}" / "[]" when empty), with Style::Compact those
/// of dumpCompact().  Numbers print like dump(): integral values below 1e15
/// in magnitude without a fraction, everything else as "%.17g" would.
///
/// The writer appends through a raw cursor into the caller's string, which
/// it grows in chunks; the string holds exactly the bytes written once the
/// top-level value is complete (and when the writer is destroyed).  Its
/// container stack lives in the writer itself, so a document of up to
/// kInlineDepth nested containers allocates nothing but the output.
///
/// The caller writes an object's keys in ascending byte order, as the tree
/// (a std::map) iterates them; debug builds check it.
class JsonWriter {
 public:
  enum class Style { Pretty, Compact };

  /// Appends to `out`, which must outlive the writer and must not be
  /// touched by anything else until the top-level value is complete.
  explicit JsonWriter(std::string& out, Style style = Style::Pretty);
  ~JsonWriter() { sync(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void beginObject();
  void endObject();
  void beginArray();
  void endArray();
  /// Member name; the next call writes the member's value, so the two
  /// chain: w.key("id").integer(7).
  JsonWriter& key(std::string_view name);

  void null();
  void boolean(bool b);
  void number(double d);
  /// Same bytes as number(static_cast<double>(i)).
  void integer(std::int64_t i);
  void string(std::string_view s);

 private:
  struct Level {
    bool array = false;
    bool empty = true;
  };
  /// Containers tracked without touching the heap.
  static constexpr int kInlineDepth = 32;

  Level& level(int depth) {
    return depth < kInlineDepth
               ? inline_[static_cast<std::size_t>(depth)]
               : deep_[static_cast<std::size_t>(depth - kInlineDepth)];
  }
  /// Room for `n` more bytes at the cursor.
  char* room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cursor_) < n) grow(n);
    return cursor_;
  }
  void put(char c) { *room(1) = c; ++cursor_; }
  /// Inline, so a literal's copy has a constant size and needs no call.
  void put(std::string_view bytes) {
    char* at = room(bytes.size());
    std::memcpy(at, bytes.data(), bytes.size());
    cursor_ = at + bytes.size();
  }
  /// A line break (after a comma when `comma`) and the indentation of the
  /// current depth.
  void putBreak(bool comma);
  void grow(std::size_t n);
  /// Trims the string to the bytes written.
  void sync();
  void beginValue();
  /// Writes the separator before a container's next entry.
  void separate(Level& current);
  void open(bool array, char bracket);
  void close(char bracket);
  /// Ends a value: a complete top-level value leaves the string exact.
  void endValue() {
    if (depth_ == 0) sync();
  }
  void escaped(std::string_view s);

  std::string& out_;
  char* cursor_ = nullptr;
  char* end_ = nullptr;
  std::size_t start_ = 0;  // out_.size() when the writer started
  Style style_;
  int depth_ = 0;
  std::array<Level, kInlineDepth> inline_{};
  std::vector<Level> deep_;  // levels past kInlineDepth
#ifndef NDEBUG
  std::vector<std::string> lastKeys_;  // per level: the key-order check
#endif
};

/// Room writeNumber17() needs at `out`; the form itself is at most 24 bytes.
inline constexpr std::size_t kNumber17Room = 48;

/// Writes the "%.17g" form of `d` at `out` and returns its end: 17
/// significant digits, trailing zeros dropped, byte for byte what printf
/// prints.  JsonWriter::number() prints every value that is not integral
/// below 1e15 this way; tests and benchmarks call it directly.
char* writeNumber17(char* out, double d);

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
  bool peek(Kind* kind) {
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
  /// Skips whitespace; inline, because the next byte is rarely any.
  void skipWhitespace() {
    if (pos_ < text_.size() &&
        static_cast<unsigned char>(text_[pos_]) <= ' ') {
      skipWhitespaceRun();
    }
  }
  void skipWhitespaceRun();
  /// Skips whitespace where the pretty form puts a line break and the
  /// indentation of container level `level`.
  void skipBreak(int level);
  /// Skips to the next value; fails at end of input (or once failed).
  bool atValue() {
    if (error_ != nullptr) return false;
    skipWhitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    return true;
  }
  bool literal(std::string_view word);
  /// End of the run of string bytes from `from` that need no decoding:
  /// the first '"', '\\' or control byte, or the end of the text.
  [[nodiscard]] std::size_t plainRunEnd(std::size_t from) const;
  bool scanString(std::string* out);
  /// Reads a number at the cursor; `out` may be null (skipping).
  bool scanNumber(double* out);
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
    // Length and first byte rule out most names without a memcmp call.
    if (key.size() == names[i].size() && !key.empty() &&
        key[0] == names[i][0] && key == names[i]) {
      return fields[i].read(reader);
    }
  }
  return reader.skipValue();
}

/// True iff static_cast<T>(d) is defined, i.e. d truncates to a value in
/// T's range.  Decoders check JSON numbers with it before narrowing them:
/// an out-of-range cast is undefined behaviour, not a wrap.
template <typename T>
[[nodiscard]] constexpr bool castFits(double d) {
  // min() is 0 or -2^k and max() + 1 is 2^k: both exact as doubles.
  constexpr double kLow = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double kHigh =
      static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  return d > kLow - 1.0 && d < kHigh;
}

}  // namespace tprm
