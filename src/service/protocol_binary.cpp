// Binary payload codec of the wire protocol: the layout of
// docs/wire_protocol.md section 6, which a connection opts into at HELLO.
//
// Every encoder runs twice over its value through one template: once into a
// byte counter, then straight into the output string, resized once to the
// exact frame size.  The decoder reads a frame in one pass and keeps the
// first error; each field is checked against what the JSON codec can carry
// for it, so the two codecs decode the same set of values.
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "service/protocol.h"

namespace tprm::service {

static_assert(std::endian::native == std::endian::little,
              "the binary codec copies little-endian fields verbatim");

namespace {

// Wire tags (docs/wire_protocol.md section 6).
enum RequestTag : std::uint8_t {
  kTagNegotiate = 1,
  kTagCancel = 2,
  kTagResize = 3,
  kTagStats = 4,
  kTagVerify = 5,
  kTagHello = 6,
};
enum ResponseTag : std::uint8_t {
  kTagError = 0,
  kTagNegotiateResult = 1,
  kTagCancelResult = 2,
  kTagResizeResult = 3,
  kTagStatsResult = 4,
  kTagVerifyResult = 5,
  kTagHelloResult = 6,
  kTagReshaped = 7,
};

// Smallest encoding of one array entry, which bounds every count by the
// bytes left: a string is at least its length word.
constexpr std::size_t kMinChainBytes = 4 + 4 + 4;      // name, bindings, tasks
constexpr std::size_t kMinBindingBytes = 4 + 8;        // param, value
constexpr std::size_t kMinTaskBytes = 4 + 4 + 8 + 8 + 8 + 1;
constexpr std::size_t kPlacementBytes = 8 + 8 + 4 + 8;
constexpr std::size_t kIdBytes = 8;
constexpr std::size_t kMinEventBytes = 8 + 1 + 8 + 8 + 8 + 8 + 4;

// --- Encoding --------------------------------------------------------------

/// Counts the bytes an encoder writes.
struct SizeSink {
  std::size_t size = 0;
  void raw(const void* /*bytes*/, std::size_t n) { size += n; }
};

/// Writes into memory already sized by a SizeSink pass.
struct WriteSink {
  char* at;
  void raw(const void* bytes, std::size_t n) {
    std::memcpy(at, bytes, n);
    at += n;
  }
};

template <typename Sink, typename T>
void fixed(Sink& s, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  s.raw(&value, sizeof value);
}

template <typename Sink>
void putU8(Sink& s, std::uint8_t v) { fixed(s, v); }
template <typename Sink>
void putU32(Sink& s, std::uint32_t v) { fixed(s, v); }
template <typename Sink>
void putU64(Sink& s, std::uint64_t v) { fixed(s, v); }
template <typename Sink>
void putI32(Sink& s, std::int32_t v) { fixed(s, v); }
template <typename Sink>
void putI64(Sink& s, std::int64_t v) { fixed(s, v); }
template <typename Sink>
void putF64(Sink& s, double v) { fixed(s, v); }
template <typename Sink>
void putBool(Sink& s, bool v) { putU8(s, v ? 1 : 0); }

/// A count or a string length.
template <typename Sink>
void putCount(Sink& s, std::size_t n) {
  TPRM_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
             "binary frame field longer than 2^32 - 1");
  putU32(s, static_cast<std::uint32_t>(n));
}

template <typename Sink>
void putString(Sink& s, std::string_view v) {
  putCount(s, v.size());
  if (!v.empty()) s.raw(v.data(), v.size());  // an empty view may be null
}

/// A time that may be "none": kTimeInfinity stands for it, as any value at
/// or past it is left out of a JSON frame.
template <typename Sink>
void putOptionalTime(Sink& s, Time t) {
  putI64(s, t < kTimeInfinity ? t : kTimeInfinity);
}

template <typename Sink>
void putBindings(Sink& s, const std::map<std::string, std::int64_t>& bindings) {
  putCount(s, bindings.size());
  for (const auto& [param, value] : bindings) {
    putString(s, param);
    putI64(s, value);
  }
}

template <typename Sink>
void putSpec(Sink& s, const task::TunableJobSpec& spec) {
  putString(s, spec.name);
  putU8(s, spec.qualityComposition == task::QualityComposition::Minimum ? 1
                                                                         : 0);
  putCount(s, spec.chains.size());
  for (const auto& chain : spec.chains) {
    putString(s, chain.name);
    putBindings(s, chain.bindings);
    putCount(s, chain.tasks.size());
    for (const auto& t : chain.tasks) {
      putString(s, t.name);
      putI32(s, t.request.processors);
      putI64(s, t.request.duration);
      putOptionalTime(s, t.relativeDeadline);
      putF64(s, t.quality);
      putBool(s, t.malleable.has_value());
      if (t.malleable) putI32(s, t.malleable->maxConcurrency);
    }
  }
}

template <typename Sink>
void putPlacements(Sink& s, const std::vector<sched::TaskPlacement>& ps) {
  putCount(s, ps.size());
  for (const auto& p : ps) {
    putI64(s, p.interval.begin);
    putI64(s, p.interval.end);
    putI32(s, p.processors);
    putOptionalTime(s, p.deadline);
  }
}

template <typename Sink>
void putIds(Sink& s, const std::vector<std::uint64_t>& ids) {
  putCount(s, ids.size());
  for (const auto id : ids) putU64(s, id);
}

template <typename Sink>
void putNegotiateRequest(Sink& s, std::uint64_t id, std::uint32_t version,
                         const task::TunableJobSpec& spec, Time release) {
  putU8(s, kTagNegotiate);
  putU8(s, static_cast<std::uint8_t>(version));
  putU64(s, id);
  putI64(s, release);
  putSpec(s, spec);
}

constexpr std::uint8_t tagOf(Command command) {
  switch (command) {
    case Command::Negotiate: return kTagNegotiate;
    case Command::Cancel: return kTagCancel;
    case Command::Resize: return kTagResize;
    case Command::Stats: return kTagStats;
    case Command::Verify: return kTagVerify;
    case Command::Hello: return kTagHello;
  }
  return 0;
}

template <typename Sink>
void putRequest(Sink& s, const Request& request) {
  if (request.command == Command::Negotiate) {
    const auto& p = std::get<NegotiateRequest>(request.payload);
    putNegotiateRequest(s, request.id, request.version, p.spec, p.release);
    return;
  }
  putU8(s, tagOf(request.command));
  putU8(s, static_cast<std::uint8_t>(request.version));
  putU64(s, request.id);
  if (const auto* cancel = std::get_if<CancelRequest>(&request.payload)) {
    putU64(s, cancel->jobId);
  } else if (const auto* resize =
                 std::get_if<ResizeRequest>(&request.payload)) {
    putI32(s, resize->processors);
    putI64(s, resize->when);
  } else if (const auto* hello = std::get_if<HelloRequest>(&request.payload)) {
    putU32(s, hello->window);
    putU8(s, static_cast<std::uint8_t>(hello->encoding));
  }
}

// Result bodies; each kind's tag is tagOf() of its type.
constexpr std::uint8_t tagOf(const NegotiateResult&) {
  return kTagNegotiateResult;
}
constexpr std::uint8_t tagOf(const CancelResult&) { return kTagCancelResult; }
constexpr std::uint8_t tagOf(const ResizeResult&) { return kTagResizeResult; }
constexpr std::uint8_t tagOf(const StatsResult&) { return kTagStatsResult; }
constexpr std::uint8_t tagOf(const VerifyResult&) { return kTagVerifyResult; }
constexpr std::uint8_t tagOf(const HelloResult&) { return kTagHelloResult; }
constexpr std::uint8_t tagOf(const ReshapedPush&) { return kTagReshaped; }

template <typename Sink>
void putBody(Sink& s, const NegotiateResult& r) {
  putBool(s, r.admitted);
  putU64(s, r.jobId);
  putU64(s, r.arrivalSeq);
  putI64(s, r.release);
  putI32(s, r.chainsConsidered);
  putI32(s, r.chainsSchedulable);
  // A JSON frame carries the grant's details only for an admission.
  if (!r.admitted) return;
  putU64(s, static_cast<std::uint64_t>(r.chainIndex));
  putF64(s, r.quality);
  putPlacements(s, r.placements);
  putBindings(s, r.bindings);
}

template <typename Sink>
void putBody(Sink& s, const CancelResult& r) {
  putI64(s, r.freedTicks);
}

template <typename Sink>
void putBody(Sink& s, const ResizeResult& r) {
  putI32(s, r.processorsBefore);
  putI32(s, r.processorsAfter);
  putIds(s, r.kept);
  putIds(s, r.reconfigured);
  putIds(s, r.dropped);
}

template <typename Sink>
void putBody(Sink& s, const StatsResult& r) {
  putI32(s, r.processors);
  putI64(s, r.clock);
  putU64(s, r.admitted);
  putU64(s, r.rejected);
  putU64(s, r.commandsExecuted);
  putI32(s, r.shards);
}

template <typename Sink>
void putBody(Sink& s, const VerifyResult& r) {
  putBool(s, r.ok);
  putI32(s, r.violations);
  // A JSON frame carries the violation only when the check failed.
  putString(s, r.ok ? std::string_view{} : std::string_view{r.firstViolation});
}

template <typename Sink>
void putBody(Sink& s, const HelloResult& r) {
  putU32(s, r.version);
  putU32(s, r.window);
  putU8(s, static_cast<std::uint8_t>(r.encoding));
}

template <typename Sink>
void putBody(Sink& s, const ReshapedPush& push) {
  putCount(s, push.events.size());
  for (const auto& e : push.events) {
    putU64(s, e.jobId);
    putBool(s, e.promotion);
    putU64(s, static_cast<std::uint64_t>(e.fromChain));
    putU64(s, static_cast<std::uint64_t>(e.toChain));
    putF64(s, e.fromQuality);
    putF64(s, e.toQuality);
    putPlacements(s, e.placements);
  }
}

template <typename Sink>
void putResponse(Sink& s, const Response& response) {
  const auto envelope = [&s, &response](std::uint8_t tag) {
    putU8(s, tag);
    putU64(s, response.id);
    putU32(s, response.advertisedWindow.value_or(0));
  };
  if (!response.ok) {
    TPRM_CHECK(response.error.has_value(),
               "error responses must carry ErrorInfo");
    envelope(kTagError);
    putString(s, response.error->code);
    putString(s, response.error->message);
    return;
  }
  TPRM_CHECK(!std::holds_alternative<std::monostate>(response.result),
             "ok response without a result payload");
  std::visit(
      [&](const auto& result) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(result)>,
                                      std::monostate>) {
          envelope(tagOf(result));
          putBody(s, result);
        }
      },
      response.result);
}

/// Appends what `put` writes: one sizing pass, one resize, one writing pass.
template <typename Put>
void appendExact(std::string& out, Put&& put) {
  SizeSink size;
  put(size);
  const std::size_t at = out.size();
  out.resize(at + size.size);
  WriteSink sink{out.data() + at};
  put(sink);
}

// --- Decoding --------------------------------------------------------------

/// True when the JSON codec carries the time `t` exactly, i.e.
/// ticksFromUnits(unitsFromTicks(t)) == t.
bool timeCarried(Time t) {
  // Within 2^50 ticks the two conversions together err by less than a
  // quarter tick, so the rounding back is exact.
  constexpr Time kAlwaysExact = Time{1} << 50;
  if (t >= -kAlwaysExact && t <= kAlwaysExact) return true;
  const double units = unitsFromTicks(t);
  return unitsFitTicks(units) && ticksFromUnits(units) == t;
}

/// True when the JSON codec carries the unsigned integer `v` exactly: it
/// writes it as an int64 through a double.
bool idCarried(std::uint64_t v) {
  return v < (std::uint64_t{1} << 63) &&
         static_cast<std::uint64_t>(static_cast<double>(v)) == v;
}

/// True when the JSON codec carries the int64 `v` exactly.
bool int64Carried(std::int64_t v) {
  const double d = static_cast<double>(v);
  return castFits<std::int64_t>(d) && static_cast<std::int64_t>(d) == v;
}

std::string field(const char* key) { return std::string("field '") + key + "'"; }

/// Reads one frame front to back.  The first error is kept and ends the
/// frame: every later read fails too and returns a zero value.
class Reader {
 public:
  explicit Reader(std::string_view frame)
      : at_(frame.data()), end_(frame.data() + frame.size()) {}

  [[nodiscard]] bool failed() const { return !error_.empty(); }
  [[nodiscard]] std::string takeError() { return std::move(error_); }
  void fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
    at_ = end_;
  }

  std::uint8_t u8() { return fixed<std::uint8_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::int32_t i32() { return fixed<std::int32_t>(); }
  std::int64_t i64() { return fixed<std::int64_t>(); }

  bool boolean(const char* key) {
    const std::uint8_t b = u8();
    if (b > 1) fail(field(key) + " must be 0 or 1");
    return b == 1;
  }
  double number(const char* key) {
    const double d = fixed<double>();
    if (!std::isfinite(d)) {
      fail(field(key) + " is not finite");
      return 0;
    }
    return d;
  }
  std::uint64_t id(const char* key) {
    const std::uint64_t v = fixed<std::uint64_t>();
    if (!idCarried(v)) fail(field(key) + " is out of range");
    return v;
  }
  Time time(const char* key) {
    const Time t = i64();
    if (!timeCarried(t)) fail(field(key) + " is out of range");
    return t;
  }
  /// A time where kTimeInfinity means none.
  Time optionalTime(const char* key) {
    const Time t = i64();
    if (t != kTimeInfinity && !timeCarried(t)) {
      fail(field(key) + " is out of range");
    }
    return t;
  }
  /// An array length, bounded by the entries the bytes left can hold.
  std::size_t count(std::size_t minEntryBytes) {
    const std::uint32_t n = u32();
    if (n > left() / minEntryBytes) {
      fail("binary frame: count " + std::to_string(n) +
           " exceeds the bytes left");
      return 0;
    }
    return n;
  }
  void string(std::string* out) {
    const std::uint32_t n = u32();
    if (failed()) return;
    if (n > left()) {
      fail(kTruncated);
      return;
    }
    out->assign(at_, n);
    at_ += n;
  }
  /// Refuses trailing bytes; true when the whole frame decoded.
  bool finish() {
    if (!failed() && at_ != end_) {
      fail("binary frame: " + std::to_string(left()) + " trailing bytes");
    }
    return !failed();
  }

 private:
  static constexpr const char* kTruncated = "binary frame is truncated";

  [[nodiscard]] std::size_t left() const {
    return static_cast<std::size_t>(end_ - at_);
  }
  template <typename T>
  T fixed() {
    T v{};
    if (left() < sizeof v) {
      fail(kTruncated);
      return v;
    }
    std::memcpy(&v, at_, sizeof v);
    at_ += sizeof v;
    return v;
  }

  const char* at_;
  const char* end_;
  std::string error_;
};

/// Bindings in strictly ascending parameter order, as a map iterates them:
/// each map has exactly one encoding.
void readBindings(Reader& r, std::map<std::string, std::int64_t>* out) {
  const std::size_t n = r.count(kMinBindingBytes);
  for (std::size_t i = 0; i < n && !r.failed(); ++i) {
    std::string param;
    r.string(&param);
    const std::int64_t value = r.i64();
    if (r.failed()) return;
    if (!int64Carried(value)) {
      r.fail("binding '" + param + "' is out of range");
    } else if (!out->empty() && !(out->rbegin()->first < param)) {
      r.fail("binding '" + param + "' is out of order or repeated");
    } else {
      out->emplace_hint(out->end(), std::move(param), value);
    }
  }
}

void readSpec(Reader& r, task::TunableJobSpec* spec) {
  r.string(&spec->name);
  const std::uint8_t composition = r.u8();
  if (composition > 1) r.fail("unknown qualityComposition");
  spec->qualityComposition = composition == 1
                                 ? task::QualityComposition::Minimum
                                 : task::QualityComposition::Multiplicative;
  spec->chains.resize(r.count(kMinChainBytes));
  for (std::size_t c = 0; c < spec->chains.size() && !r.failed(); ++c) {
    auto& chain = spec->chains[c];
    r.string(&chain.name);
    readBindings(r, &chain.bindings);
    chain.tasks.resize(r.count(kMinTaskBytes));
    for (std::size_t k = 0; k < chain.tasks.size() && !r.failed(); ++k) {
      auto& t = chain.tasks[k];
      r.string(&t.name);
      t.request.processors = r.i32();
      t.request.duration = r.time("duration");
      t.relativeDeadline = r.optionalTime("deadline");
      t.quality = r.number("quality");
      if (!r.boolean("malleable")) continue;
      const int maxConcurrency = r.i32();
      std::int64_t work = 0;
      if (__builtin_mul_overflow(std::int64_t{t.request.processors},
                                 t.request.duration, &work)) {
        r.fail("bad spec: chains[" + std::to_string(c) + "].tasks[" +
               std::to_string(k) + "]: processors x duration is out of range");
      }
      t.malleable = task::MalleableSpec{work, maxConcurrency};
    }
  }
}

void readPlacements(Reader& r, std::vector<sched::TaskPlacement>* out) {
  out->resize(r.count(kPlacementBytes));
  for (auto& p : *out) {
    p.interval.begin = r.time("begin");
    p.interval.end = r.time("end");
    p.processors = r.i32();
    p.deadline = r.optionalTime("deadline");
  }
}

void readIds(Reader& r, const char* key, std::vector<std::uint64_t>* out) {
  out->resize(r.count(kIdBytes));
  for (auto& id : *out) id = r.id(key);
}

}  // namespace

void appendNegotiateRequestBinary(std::string& out, std::uint64_t id,
                                  std::uint32_t version,
                                  const task::TunableJobSpec& spec,
                                  Time release) {
  appendExact(out, [&](auto& sink) {
    putNegotiateRequest(sink, id, version, spec, release);
  });
}

void appendRequestBinary(std::string& out, const Request& request) {
  appendExact(out, [&](auto& sink) { putRequest(sink, request); });
}

std::string encodeRequestBinary(const Request& request) {
  std::string out;
  appendRequestBinary(out, request);
  return out;
}

void appendResponseBinary(std::string& out, const Response& response) {
  appendExact(out, [&](auto& sink) { putResponse(sink, response); });
}

std::string encodeResponseBinary(const Response& response) {
  std::string out;
  appendResponseBinary(out, response);
  return out;
}

RequestParseResult decodeRequestBinary(std::string_view frame) {
  RequestParseResult result;
  Reader r(frame);
  Request request;
  const std::uint8_t tag = r.u8();
  const std::uint8_t version = r.u8();
  request.id = r.id("id");
  if (r.failed()) {
    result.error = r.takeError();
    return result;
  }
  if (version != kProtocolVersion && version != kProtocolVersionV2) {
    result.error = "unsupported protocol version " + std::to_string(version);
    return result;
  }
  request.version = version;
  switch (tag) {
    case kTagNegotiate: {
      request.command = Command::Negotiate;
      auto& payload = request.payload.emplace<NegotiateRequest>();
      payload.release = r.time("release");
      readSpec(r, &payload.spec);
      break;
    }
    case kTagCancel:
      request.command = Command::Cancel;
      request.payload = CancelRequest{r.id("jobId")};
      break;
    case kTagResize: {
      request.command = Command::Resize;
      auto& payload = request.payload.emplace<ResizeRequest>();
      payload.processors = r.i32();
      payload.when = r.time("when");
      break;
    }
    case kTagStats: request.command = Command::Stats; break;
    case kTagVerify: request.command = Command::Verify; break;
    case kTagHello: {
      if (request.version < kProtocolVersionV2) {
        result.error = "HELLO requires protocol version 2";
        return result;
      }
      request.command = Command::Hello;
      auto& payload = request.payload.emplace<HelloRequest>();
      // A JSON HELLO's window is at least 1: an absent or zero one reads 1.
      payload.window = r.u32();
      if (payload.window == 0) r.fail(field("window") + " is out of range");
      const std::uint8_t encoding = r.u8();
      if (encoding > static_cast<std::uint8_t>(Encoding::Binary)) {
        r.fail("unknown encoding " + std::to_string(encoding));
      }
      payload.encoding = static_cast<Encoding>(encoding);
      break;
    }
    default:
      result.error = "unknown command tag " + std::to_string(tag);
      return result;
  }
  if (!r.finish()) {
    result.error = r.takeError();
    return result;
  }
  if (const auto* negotiate = std::get_if<NegotiateRequest>(&request.payload)) {
    const auto errors = task::validate(negotiate->spec);
    if (!errors.empty()) {
      result.error = "bad spec: invalid spec: " + errors.front();
      return result;
    }
  }
  result.request = std::move(request);
  return result;
}

ResponseParseResult decodeResponseBinary(std::string_view frame) {
  ResponseParseResult out;
  Reader r(frame);
  Response response;
  const std::uint8_t tag = r.u8();
  response.id = r.id("id");
  // Zero stands for "no re-advertisement", as a JSON window below 1 does.
  if (const std::uint32_t window = r.u32(); window != 0) {
    response.advertisedWindow = window;
  }
  response.ok = tag != kTagError;
  switch (tag) {
    case kTagError: {
      auto& error = response.error.emplace();
      r.string(&error.code);
      r.string(&error.message);
      break;
    }
    case kTagNegotiateResult: {
      auto& n = response.result.emplace<NegotiateResult>();
      n.admitted = r.boolean("admitted");
      n.jobId = r.id("jobId");
      n.arrivalSeq = r.id("arrivalSeq");
      n.release = r.time("release");
      n.chainsConsidered = r.i32();
      n.chainsSchedulable = r.i32();
      if (n.admitted) {
        n.chainIndex = static_cast<std::size_t>(r.id("chainIndex"));
        n.quality = r.number("quality");
        readPlacements(r, &n.placements);
        readBindings(r, &n.bindings);
      }
      break;
    }
    case kTagCancelResult:
      response.result = CancelResult{r.time("freed")};
      break;
    case kTagResizeResult: {
      auto& resize = response.result.emplace<ResizeResult>();
      resize.processorsBefore = r.i32();
      resize.processorsAfter = r.i32();
      readIds(r, "kept", &resize.kept);
      readIds(r, "reconfigured", &resize.reconfigured);
      readIds(r, "dropped", &resize.dropped);
      break;
    }
    case kTagStatsResult: {
      auto& stats = response.result.emplace<StatsResult>();
      stats.processors = r.i32();
      stats.clock = r.time("clock");
      stats.admitted = r.id("admitted");
      stats.rejected = r.id("rejected");
      stats.commandsExecuted = r.id("commandsExecuted");
      stats.shards = r.i32();
      break;
    }
    case kTagVerifyResult: {
      auto& verify = response.result.emplace<VerifyResult>();
      verify.ok = r.boolean("ok");
      verify.violations = r.i32();
      r.string(&verify.firstViolation);
      if (verify.ok && !verify.firstViolation.empty()) {
        r.fail(field("firstViolation") + " must be empty when ok");
      }
      break;
    }
    case kTagHelloResult: {
      auto& hello = response.result.emplace<HelloResult>();
      hello.version = r.u32();
      hello.window = r.u32();
      const std::uint8_t encoding = r.u8();
      if (encoding > static_cast<std::uint8_t>(Encoding::Binary)) {
        r.fail("unknown encoding " + std::to_string(encoding));
      }
      hello.encoding = static_cast<Encoding>(encoding);
      break;
    }
    case kTagReshaped: {
      auto& events = response.result.emplace<ReshapedPush>().events;
      events.resize(r.count(kMinEventBytes));
      for (auto& e : events) {
        e.jobId = r.id("jobId");
        e.promotion = r.boolean("promotion");
        e.fromChain = static_cast<std::size_t>(r.id("fromChain"));
        e.toChain = static_cast<std::size_t>(r.id("toChain"));
        e.fromQuality = r.number("fromQuality");
        e.toQuality = r.number("toQuality");
        readPlacements(r, &e.placements);
      }
      break;
    }
    default:
      r.fail("unknown response tag " + std::to_string(tag));
  }
  if (!r.finish()) {
    out.error = r.takeError();
    return out;
  }
  out.response = std::move(response);
  return out;
}

}  // namespace tprm::service
