#include "service/protocol.h"

#include <cmath>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "taskmodel/spec_io.h"

namespace tprm::service {

namespace {

// --- Encode helpers -------------------------------------------------------
//
// Frames are written straight from the structs in the canonical form of
// JsonValue::dump(): every object's keys in ascending order.

void writePlacements(JsonWriter& w,
                     const std::vector<sched::TaskPlacement>& ps) {
  w.beginArray();
  for (const auto& p : ps) {
    w.beginObject();
    w.key("begin").number(unitsFromTicks(p.interval.begin));
    if (p.deadline < kTimeInfinity) {
      w.key("deadline").number(unitsFromTicks(p.deadline));
    }
    w.key("end").number(unitsFromTicks(p.interval.end));
    w.key("processors").integer(p.processors);
    w.endObject();
  }
  w.endArray();
}

void writeIds(JsonWriter& w, const char* key,
              const std::vector<std::uint64_t>& ids) {
  w.key(key).beginArray();
  for (const auto id : ids) w.integer(static_cast<std::int64_t>(id));
  w.endArray();
}

// --- Decode helpers -------------------------------------------------------
//
// Decoders read a frame in one pass, capturing the members they know
// (JsonField for scalars, the *Field structs below for containers; unknown
// members are skipped, a repeated member overwrites).  Once the whole frame
// has parsed, the checks run over the captures in a fixed order, so a
// syntax error anywhere takes precedence over a field error, and which
// field error is reported does not depend on the member order.

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

/// Placements reserved up front: a chain of the scenario streams has two
/// or three tasks.
constexpr std::size_t kPlacementsHint = 4;

/// A captured "placements" array: the entries and the first error.
struct PlacementsField {
  bool present = false;
  bool isArray = false;
  std::vector<sched::TaskPlacement> placements;
  std::string error;

  void read(JsonReader& reader);
  /// The placements, or false with `*out` set to the error.
  bool take(std::vector<sched::TaskPlacement>* placementsOut,
            std::string* out) {
    if (!present || !isArray) {
      *out = "'placements' must be an array";
      return false;
    }
    if (!error.empty()) {
      *out = std::move(error);
      return false;
    }
    *placementsOut = std::move(placements);
    return true;
  }
};

void PlacementsField::read(JsonReader& reader) {
  static constexpr std::array<std::string_view, 4> kNames = {
      "begin", "end", "processors", "deadline"};
  present = true;
  placements.clear();
  error.clear();
  isArray = reader.nextIs(JsonReader::Kind::Array);
  if (!isArray) {
    reader.skipValue();
    return;
  }
  placements.reserve(kPlacementsHint);
  reader.beginArray();
  while (reader.nextElement()) {
    if (!error.empty() || !reader.nextIs(JsonReader::Kind::Object)) {
      if (error.empty()) error = "placement entries must be objects";
      reader.skipValue();
      continue;
    }
    std::array<JsonField, 4> f;
    auto& [begin, end, processors, deadline] = f;
    reader.beginObject();
    std::string_view key;
    while (reader.nextMember(&key)) readMember(reader, key, kNames, f);
    if (reader.failed()) return;
    Checker r;
    sched::TaskPlacement p;
    p.interval.begin = r.time(begin, "begin");
    p.interval.end = r.time(end, "end");
    p.processors = r.integer(processors, "processors");
    p.deadline = deadline.isNumber() ? r.time(deadline, "deadline")
                                     : kTimeInfinity;
    if (r.failed()) {
      error = r.error();
      continue;
    }
    placements.push_back(p);
  }
}

/// A captured id array of a RESIZE result.
struct IdsField {
  bool present = false;
  bool isArray = false;
  std::vector<std::uint64_t> ids;
  const char* problem = nullptr;

  void read(JsonReader& reader) {
    present = true;
    ids.clear();
    problem = nullptr;
    isArray = reader.nextIs(JsonReader::Kind::Array);
    if (!isArray) {
      reader.skipValue();
      return;
    }
    reader.beginArray();
    while (reader.nextElement()) {
      JsonField entry;
      entry.read(reader);
      if (problem != nullptr) continue;
      if (!entry.isNumber()) {
        problem = " entries must be numbers";
      } else if (!castFits<std::uint64_t>(entry.number)) {
        problem = " entries are out of range";
      } else {
        ids.push_back(static_cast<std::uint64_t>(entry.number));
      }
    }
  }

  bool take(const char* key, std::vector<std::uint64_t>* idsOut,
            std::string* out) {
    if (!present || !isArray) {
      *out = std::string("'") + key + "' must be an array";
      return false;
    }
    if (problem != nullptr) {
      *out = std::string("'") + key + "'" + problem;
      return false;
    }
    *idsOut = std::move(ids);
    return true;
  }
};

/// A captured "bindings" object of a NEGOTIATE result.  Both maps are keyed
/// by parameter, so a repeated parameter keeps its last value and the error
/// reported is that of the first bad parameter in key order.
struct BindingsField {
  bool present = false;
  bool isObject = false;
  std::map<std::string, std::int64_t> values;
  std::map<std::string, const char*> bad;

  void read(JsonReader& reader) {
    present = true;
    values.clear();
    bad.clear();
    isObject = reader.nextIs(JsonReader::Kind::Object);
    if (!isObject) {
      reader.skipValue();
      return;
    }
    reader.beginObject();
    std::string_view key;
    while (reader.nextMember(&key)) {
      std::string param(key);
      JsonField value;
      value.read(reader);
      const char* problem = !value.isNumber() ? " must be a number"
                            : !castFits<std::int64_t>(value.number)
                                ? " is out of range"
                                : nullptr;
      if (problem != nullptr) {
        values.erase(param);
        bad[std::move(param)] = problem;
      } else {
        bad.erase(param);
        values[std::move(param)] = static_cast<std::int64_t>(value.number);
      }
    }
  }
};

/// A captured "events" array of a RESHAPED push.
struct EventsField {
  bool present = false;
  bool isArray = false;
  std::vector<ReshapeEvent> events;
  std::string error;

  void read(JsonReader& reader);
};

void EventsField::read(JsonReader& reader) {
  static constexpr std::array<std::string_view, 6> kNames = {
      "jobId",   "promotion",   "fromChain",
      "toChain", "fromQuality", "toQuality"};
  present = true;
  events.clear();
  error.clear();
  isArray = reader.nextIs(JsonReader::Kind::Array);
  if (!isArray) {
    reader.skipValue();
    return;
  }
  reader.beginArray();
  while (reader.nextElement()) {
    if (!error.empty() || !reader.nextIs(JsonReader::Kind::Object)) {
      if (error.empty()) error = "reshape events must be objects";
      reader.skipValue();
      continue;
    }
    std::array<JsonField, 6> f;
    auto& [jobId, promotion, fromChain, toChain, fromQuality, toQuality] = f;
    PlacementsField placements;
    reader.beginObject();
    std::string_view key;
    while (reader.nextMember(&key)) {
      if (key == "placements") {
        placements.read(reader);
      } else {
        readMember(reader, key, kNames, f);
      }
    }
    if (reader.failed()) return;
    Checker er;
    ReshapeEvent event;
    event.jobId = er.id(jobId, "jobId");
    event.promotion = er.boolean(promotion, "promotion");
    event.fromChain = static_cast<std::size_t>(er.id(fromChain, "fromChain"));
    event.toChain = static_cast<std::size_t>(er.id(toChain, "toChain"));
    event.fromQuality = er.number(fromQuality, "fromQuality");
    event.toQuality = er.number(toQuality, "toQuality");
    if (er.failed()) {
      error = er.error();
      continue;
    }
    if (!placements.take(&event.placements, &error)) continue;
    events.push_back(std::move(event));
  }
}

/// Every member any result kind carries.  Each is captured the same way
/// whatever the kind ("admitted" is a boolean in a NEGOTIATE result and a
/// count in a STATS one; a JsonField holds either), so the result object
/// can be read before its kind, the sibling "cmd", is known.
struct ResultFields {
  static constexpr std::array<std::string_view, 22> kNames = {
      "admitted",         "arrivalSeq",       "jobId",
      "release",          "chainsConsidered", "chainsSchedulable",
      "chainIndex",       "quality",          "freed",
      "processorsBefore", "processorsAfter",  "processors",
      "clock",            "rejected",         "commandsExecuted",
      "shards",           "ok",               "violations",
      "firstViolation",   "version",          "window",
      "encoding"};
  enum Scalar {
    kAdmitted, kArrivalSeq, kJobId, kRelease, kChainsConsidered,
    kChainsSchedulable, kChainIndex, kQuality, kFreed, kProcessorsBefore,
    kProcessorsAfter, kProcessors, kClock, kRejected, kCommandsExecuted,
    kShards, kOk, kViolations, kFirstViolation, kVersion, kWindow, kEncoding
  };

  std::array<JsonField, kNames.size()> scalars;
  PlacementsField placements;
  BindingsField bindings;
  IdsField kept, reconfigured, dropped;
  EventsField events;

  void read(JsonReader& reader) {
    reader.beginObject();
    std::string_view key;
    while (reader.nextMember(&key)) {
      if (key == "placements") {
        placements.read(reader);
      } else if (key == "bindings") {
        bindings.read(reader);
      } else if (key == "kept") {
        kept.read(reader);
      } else if (key == "reconfigured") {
        reconfigured.read(reader);
      } else if (key == "dropped") {
        dropped.read(reader);
      } else if (key == "events") {
        events.read(reader);
      } else {
        readMember(reader, key, kNames, scalars);
      }
    }
  }
  JsonField& operator[](Scalar s) { return scalars[s]; }
};

/// Name of an encoding in a HELLO's "encoding" member.
constexpr std::string_view kBinaryName = "binary";

/// The encoding a captured "encoding" member names: absent or a name this
/// codec does not know is JSON, so a client asking for a future encoding
/// falls back to JSON instead of failing its handshake.
Encoding encodingOf(Checker& r, JsonField& f) {
  if (!f.present) return Encoding::Json;
  return r.string(f, "encoding") == kBinaryName ? Encoding::Binary
                                                : Encoding::Json;
}

std::string jsonError(const JsonReader& reader) {
  return "JSON error at byte " + std::to_string(reader.errorOffset()) + ": " +
         reader.error();
}

}  // namespace

const char* toString(Command command) {
  switch (command) {
    case Command::Negotiate: return "NEGOTIATE";
    case Command::Cancel: return "CANCEL";
    case Command::Resize: return "RESIZE";
    case Command::Stats: return "STATS";
    case Command::Verify: return "VERIFY";
    case Command::Hello: return "HELLO";
  }
  return "UNKNOWN";
}

void appendNegotiateRequest(std::string& out, std::uint64_t id,
                            std::uint32_t version,
                            const task::TunableJobSpec& spec, Time release) {
  JsonWriter w(out);
  w.beginObject();
  w.key("cmd").string(toString(Command::Negotiate));
  w.key("id").integer(static_cast<std::int64_t>(id));
  w.key("release").number(unitsFromTicks(release));
  w.key("spec");
  task::writeJobSpec(w, spec);
  w.key("v").integer(version);
  w.endObject();
}

void appendRequest(std::string& out, const Request& request) {
  if (request.command == Command::Negotiate) {
    const auto& p = std::get<NegotiateRequest>(request.payload);
    appendNegotiateRequest(out, request.id, request.version, p.spec,
                           p.release);
    return;
  }
  JsonWriter w(out);
  w.beginObject();
  w.key("cmd").string(toString(request.command));
  if (request.command == Command::Hello &&
      std::get<HelloRequest>(request.payload).encoding == Encoding::Binary) {
    w.key("encoding").string(kBinaryName);
  }
  w.key("id").integer(static_cast<std::int64_t>(request.id));
  switch (request.command) {
    case Command::Cancel:
      w.key("jobId");
      w.integer(static_cast<std::int64_t>(
          std::get<CancelRequest>(request.payload).jobId));
      break;
    case Command::Resize:
      w.key("processors");
      w.integer(std::get<ResizeRequest>(request.payload).processors);
      break;
    case Command::Negotiate:
    case Command::Hello:
    case Command::Stats:
    case Command::Verify:
      break;
  }
  w.key("v").integer(request.version);
  if (request.command == Command::Resize) {
    w.key("when");
    w.number(unitsFromTicks(std::get<ResizeRequest>(request.payload).when));
  } else if (request.command == Command::Hello) {
    w.key("window").integer(std::get<HelloRequest>(request.payload).window);
  }
  w.endObject();
}

std::string encodeRequest(const Request& request) {
  std::string out;
  out.reserve(request.command == Command::Negotiate ? 2048 : 96);
  appendRequest(out, request);
  return out;
}

RequestParseResult decodeRequest(std::string_view text) {
  static constexpr std::array<std::string_view, 9> kNames = {
      "v",          "id",   "cmd",    "release", "jobId",
      "processors", "when", "window", "encoding"};
  RequestParseResult result;
  JsonReader reader(text);
  std::array<JsonField, kNames.size()> f;
  auto& [v, id, cmdField, release, jobId, processors, when, window,
         encoding] = f;
  bool specPresent = false;
  task::SpecParseResult spec;
  const bool isObject = reader.nextIs(JsonReader::Kind::Object);
  if (isObject) {
    reader.beginObject();
    std::string_view key;
    while (reader.nextMember(&key)) {
      if (key == "spec") {
        specPresent = true;
        spec = task::readJobSpec(reader);
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
    payload.encoding = encodingOf(r, encoding);
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

namespace {

void writeResult(JsonWriter& w, const NegotiateResult& negotiate) {
  const bool admitted = negotiate.admitted;
  w.key("admitted").boolean(admitted);
  w.key("arrivalSeq").integer(static_cast<std::int64_t>(negotiate.arrivalSeq));
  if (admitted && !negotiate.bindings.empty()) {
    w.key("bindings").beginObject();
    for (const auto& [param, value] : negotiate.bindings) {
      w.key(param).integer(value);
    }
    w.endObject();
  }
  if (admitted) {
    w.key("chainIndex");
    w.integer(static_cast<std::int64_t>(negotiate.chainIndex));
  }
  w.key("chainsConsidered").integer(negotiate.chainsConsidered);
  w.key("chainsSchedulable").integer(negotiate.chainsSchedulable);
  w.key("jobId").integer(static_cast<std::int64_t>(negotiate.jobId));
  if (admitted) {
    w.key("placements");
    writePlacements(w, negotiate.placements);
    w.key("quality").number(negotiate.quality);
  }
  w.key("release").number(unitsFromTicks(negotiate.release));
}

void writeResult(JsonWriter& w, const CancelResult& cancel) {
  w.key("freed").number(unitsFromTicks(cancel.freedTicks));
}

void writeResult(JsonWriter& w, const ResizeResult& resize) {
  writeIds(w, "dropped", resize.dropped);
  writeIds(w, "kept", resize.kept);
  w.key("processorsAfter").integer(resize.processorsAfter);
  w.key("processorsBefore").integer(resize.processorsBefore);
  writeIds(w, "reconfigured", resize.reconfigured);
}

void writeResult(JsonWriter& w, const StatsResult& stats) {
  w.key("admitted").integer(static_cast<std::int64_t>(stats.admitted));
  w.key("clock").number(unitsFromTicks(stats.clock));
  w.key("commandsExecuted");
  w.integer(static_cast<std::int64_t>(stats.commandsExecuted));
  w.key("processors").integer(stats.processors);
  w.key("rejected").integer(static_cast<std::int64_t>(stats.rejected));
  w.key("shards").integer(stats.shards);
}

void writeResult(JsonWriter& w, const VerifyResult& verify) {
  if (!verify.ok) {
    w.key("firstViolation").string(verify.firstViolation);
  }
  w.key("ok").boolean(verify.ok);
  w.key("violations").integer(verify.violations);
}

void writeResult(JsonWriter& w, const HelloResult& hello) {
  if (hello.encoding == Encoding::Binary) {
    w.key("encoding").string(kBinaryName);
  }
  w.key("version").integer(hello.version);
  w.key("window").integer(hello.window);
}

void writeResult(JsonWriter& w, const ReshapedPush& push) {
  w.key("events").beginArray();
  for (const auto& event : push.events) {
    w.beginObject();
    w.key("fromChain").integer(static_cast<std::int64_t>(event.fromChain));
    w.key("fromQuality").number(event.fromQuality);
    w.key("jobId").integer(static_cast<std::int64_t>(event.jobId));
    w.key("placements");
    writePlacements(w, event.placements);
    w.key("promotion").boolean(event.promotion);
    w.key("toChain").integer(static_cast<std::int64_t>(event.toChain));
    w.key("toQuality").number(event.toQuality);
    w.endObject();
  }
  w.endArray();
}

const char* resultCommand(const Response::Result& result) {
  if (std::holds_alternative<NegotiateResult>(result)) {
    return toString(Command::Negotiate);
  }
  if (std::holds_alternative<CancelResult>(result)) {
    return toString(Command::Cancel);
  }
  if (std::holds_alternative<ResizeResult>(result)) {
    return toString(Command::Resize);
  }
  if (std::holds_alternative<StatsResult>(result)) {
    return toString(Command::Stats);
  }
  if (std::holds_alternative<VerifyResult>(result)) {
    return toString(Command::Verify);
  }
  if (std::holds_alternative<HelloResult>(result)) {
    return toString(Command::Hello);
  }
  if (std::holds_alternative<ReshapedPush>(result)) return "RESHAPED";
  TPRM_CHECK(false, "ok response without a result payload");
  return nullptr;
}

}  // namespace

void appendResponse(std::string& out, const Response& response) {
  JsonWriter w(out);
  w.beginObject();
  if (!response.ok) {
    TPRM_CHECK(response.error.has_value(),
               "error responses must carry ErrorInfo");
    w.key("error").beginObject();
    w.key("code").string(response.error->code);
    w.key("message").string(response.error->message);
    w.endObject();
  } else {
    w.key("cmd").string(resultCommand(response.result));
  }
  w.key("id").integer(static_cast<std::int64_t>(response.id));
  w.key("ok").boolean(response.ok);
  if (response.ok) {
    w.key("result").beginObject();
    std::visit(
        [&w](const auto& result) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(result)>,
                                        std::monostate>) {
            writeResult(w, result);
          }
        },
        response.result);
    w.endObject();
  }
  if (response.advertisedWindow.has_value()) {
    w.key("window").integer(*response.advertisedWindow);
  }
  w.endObject();
}

std::string encodeResponse(const Response& response) {
  std::string out;
  if (!response.ok) {
    out.reserve(96 + (response.error ? response.error->message.size() : 0));
  } else {
    out.reserve(
        std::holds_alternative<NegotiateResult>(response.result) ? 1024 : 256);
  }
  appendResponse(out, response);
  return out;
}

ResponseParseResult decodeResponse(std::string_view text) {
  static constexpr std::array<std::string_view, 4> kNames = {"id", "ok",
                                                             "window", "cmd"};
  static constexpr std::array<std::string_view, 2> kErrorNames = {"code",
                                                                  "message"};
  ResponseParseResult out;
  JsonReader reader(text);
  std::array<JsonField, kNames.size()> f;
  auto& [id, ok, window, cmdField] = f;
  bool errorPresent = false;
  bool errorIsObject = false;
  std::array<JsonField, kErrorNames.size()> e;
  auto& [code, message] = e;
  bool resultPresent = false;
  bool resultIsObject = false;
  ResultFields res;
  const bool isObject = reader.nextIs(JsonReader::Kind::Object);
  if (isObject) {
    reader.beginObject();
    std::string_view key;
    while (reader.nextMember(&key)) {
      if (key == "error") {
        errorPresent = true;
        e = {};
        errorIsObject = reader.nextIs(JsonReader::Kind::Object);
        if (!errorIsObject) {
          reader.skipValue();
          continue;
        }
        reader.beginObject();
        while (reader.nextMember(&key)) readMember(reader, key, kErrorNames, e);
      } else if (key == "result") {
        resultPresent = true;
        res = ResultFields{};
        resultIsObject = reader.nextIs(JsonReader::Kind::Object);
        if (resultIsObject) {
          res.read(reader);
        } else {
          reader.skipValue();
        }
      } else {
        readMember(reader, key, kNames, f);
      }
    }
  } else {
    reader.skipValue();
  }
  if (!reader.finish()) {
    out.error = jsonError(reader);
    return out;
  }
  if (!isObject) {
    out.error = "response must be an object";
    return out;
  }
  Checker r;
  Response response;
  response.id = r.id(id, "id");
  response.ok = r.boolean(ok, "ok");
  if (r.failed()) {
    out.error = r.error();
    return out;
  }
  // Adaptive-window re-advertisement; tolerated absent (older servers).
  if (window.isNumber() && window.number >= 1) {
    if (!castFits<std::uint32_t>(window.number)) {
      out.error = outOfRange("window");
      return out;
    }
    response.advertisedWindow = static_cast<std::uint32_t>(window.number);
  }
  if (!response.ok) {
    if (!errorPresent || !errorIsObject) {
      out.error = "error response without 'error' object";
      return out;
    }
    Checker er;
    ErrorInfo info;
    info.code = er.string(code, "code");
    info.message = er.string(message, "message");
    if (er.failed()) {
      out.error = er.error();
      return out;
    }
    response.error = std::move(info);
    out.response = std::move(response);
    return out;
  }

  const auto cmd = r.string(cmdField, "cmd");
  if (r.failed() || !resultPresent || !resultIsObject) {
    out.error = r.failed() ? r.error() : "ok response without 'result' object";
    return out;
  }
  using F = ResultFields;
  Checker rr;
  if (cmd == "NEGOTIATE") {
    NegotiateResult negotiate;
    negotiate.admitted = rr.boolean(res[F::kAdmitted], "admitted");
    negotiate.arrivalSeq = rr.id(res[F::kArrivalSeq], "arrivalSeq");
    negotiate.jobId = rr.id(res[F::kJobId], "jobId");
    negotiate.release = rr.time(res[F::kRelease], "release");
    negotiate.chainsConsidered =
        rr.integer(res[F::kChainsConsidered], "chainsConsidered");
    negotiate.chainsSchedulable =
        rr.integer(res[F::kChainsSchedulable], "chainsSchedulable");
    if (!rr.failed() && negotiate.admitted) {
      negotiate.chainIndex =
          static_cast<std::size_t>(rr.id(res[F::kChainIndex], "chainIndex"));
      negotiate.quality = rr.number(res[F::kQuality], "quality");
      if (!res.placements.take(&negotiate.placements, &out.error)) return out;
      if (res.bindings.present) {
        if (!res.bindings.isObject) {
          out.error = "'bindings' must be an object";
          return out;
        }
        if (!res.bindings.bad.empty()) {
          const auto& [param, problem] = *res.bindings.bad.begin();
          out.error = "binding '" + param + "'" + problem;
          return out;
        }
        negotiate.bindings = std::move(res.bindings.values);
      }
    }
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = std::move(negotiate);
  } else if (cmd == "CANCEL") {
    CancelResult cancel;
    cancel.freedTicks = rr.time(res[F::kFreed], "freed");
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = cancel;
  } else if (cmd == "RESIZE") {
    ResizeResult resize;
    resize.processorsBefore =
        rr.integer(res[F::kProcessorsBefore], "processorsBefore");
    resize.processorsAfter =
        rr.integer(res[F::kProcessorsAfter], "processorsAfter");
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    if (!res.kept.take("kept", &resize.kept, &out.error) ||
        !res.reconfigured.take("reconfigured", &resize.reconfigured,
                               &out.error) ||
        !res.dropped.take("dropped", &resize.dropped, &out.error)) {
      return out;
    }
    response.result = std::move(resize);
  } else if (cmd == "STATS") {
    StatsResult stats;
    stats.processors = rr.integer(res[F::kProcessors], "processors");
    stats.clock = rr.time(res[F::kClock], "clock");
    stats.admitted = rr.id(res[F::kAdmitted], "admitted");
    stats.rejected = rr.id(res[F::kRejected], "rejected");
    stats.commandsExecuted =
        rr.id(res[F::kCommandsExecuted], "commandsExecuted");
    if (res[F::kShards].isNumber()) {
      stats.shards = rr.integer(res[F::kShards], "shards");
    }
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = stats;
  } else if (cmd == "VERIFY") {
    VerifyResult verify;
    verify.ok = rr.boolean(res[F::kOk], "ok");
    verify.violations = rr.integer(res[F::kViolations], "violations");
    if (res[F::kFirstViolation].isString()) {
      verify.firstViolation = std::move(res[F::kFirstViolation].text);
    }
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = std::move(verify);
  } else if (cmd == "HELLO") {
    HelloResult hello;
    hello.version = rr.u32(res[F::kVersion], "version");
    hello.window = rr.u32(res[F::kWindow], "window");
    hello.encoding = encodingOf(rr, res[F::kEncoding]);
    if (rr.failed()) {
      out.error = rr.error();
      return out;
    }
    response.result = hello;
  } else if (cmd == "RESHAPED") {
    if (!res.events.present || !res.events.isArray) {
      out.error = "'events' must be an array";
      return out;
    }
    if (!res.events.error.empty()) {
      out.error = std::move(res.events.error);
      return out;
    }
    response.result = ReshapedPush{std::move(res.events.events)};
  } else {
    out.error = "unknown response command '" + cmd + "'";
    return out;
  }
  out.response = std::move(response);
  return out;
}

Response makeError(std::uint64_t id, std::string code, std::string message) {
  Response response;
  response.id = id;
  response.ok = false;
  response.error = ErrorInfo{std::move(code), std::move(message)};
  return response;
}

}  // namespace tprm::service
