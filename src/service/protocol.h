// Wire protocol of the negotiation service.
//
// Frames (net/frame.h) carry one JSON document each.  Requests:
//
//   {"v": 1, "id": 7, "cmd": "NEGOTIATE",
//    "release": 0.0,                  // paper units; clamped to the clock
//    "spec": { ...taskmodel/spec_io schema... }}
//   {"v": 1, "id": 8, "cmd": "CANCEL", "jobId": 3}
//   {"v": 1, "id": 9, "cmd": "RESIZE", "processors": 48, "when": 125.0}
//   {"v": 1, "id": 10, "cmd": "STATS"}
//   {"v": 1, "id": 11, "cmd": "VERIFY"}
//
// Responses echo the request id:
//
//   {"id": 7, "ok": true, "result": {...}}
//   {"id": 7, "ok": false,
//    "error": {"code": "bad_request", "message": "..."}}
//
// Every connection starts with a HELLO handshake (docs/wire_protocol.md is
// the normative spec):
//
//   {"v": 2, "id": 1, "cmd": "HELLO", "window": 32}
//   -> {"id": 1, "ok": true, "cmd": "HELLO",
//       "result": {"version": 2, "window": 32}}
//
// A client may add "encoding": "binary" to its HELLO.  A server that echoes
// it in the grant switches the connection to the compact binary payloads
// of docs/wire_protocol.md section 6 for every later frame, both ways; the
// HELLO exchange itself is always JSON.
//
// After HELLO the connection may carry many in-flight requests (up to the
// negotiated window), each tagged with a client-chosen `id` (requestId);
// responses may arrive in any order and are correlated by that id.  A
// server answers a first frame that is not HELLO with `unsupported_version`
// and closes the connection: the v1 protocol, one request at a time with
// no handshake, is retired.  The request envelope still accepts "v": 1,
// which recorded wire traces carry.
//
// All times cross the wire in paper units (doubles), matching spec_io;
// ticksFromUnits(unitsFromTicks(t)) == t for every time this service
// produces, so decisions survive the trip exactly.  Infinite deadlines are
// omitted.  Error codes are stable strings: bad_request, bad_spec,
// unknown_command, shutting_down, busy, unsupported_version, internal.
// `busy` is backpressure: the request was not executed (window exceeded or
// shard queue full) and may be retried.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/time.h"
#include "sched/arbitrator.h"
#include "taskmodel/chain.h"

namespace tprm::service {

/// Envelope version of the retired one-request-at-a-time protocol; still
/// accepted in a request's "v" field (recorded traces carry it).
inline constexpr std::uint32_t kProtocolVersion = 1;
/// The protocol every connection speaks: HELLO handshake, requestId-
/// correlated out-of-order responses, typed `busy` backpressure.
inline constexpr std::uint32_t kProtocolVersionV2 = 2;

enum class Command { Negotiate, Cancel, Resize, Stats, Verify, Hello };

/// Payload encoding of a connection's frames after the HELLO exchange.
enum class Encoding : std::uint8_t { Json, Binary };

[[nodiscard]] const char* toString(Command command);

struct NegotiateRequest {
  task::TunableJobSpec spec;
  Time release = 0;

  bool operator==(const NegotiateRequest&) const = default;
};
struct CancelRequest {
  std::uint64_t jobId = 0;

  bool operator==(const CancelRequest&) const = default;
};
struct ResizeRequest {
  int processors = 0;
  Time when = 0;

  bool operator==(const ResizeRequest&) const = default;
};
/// Handshake: must be the first frame on every connection.  `window` is the
/// in-flight cap the client asks for; the server grants min(window, its
/// per-connection cap) in HelloResult.
struct HelloRequest {
  std::uint32_t window = 1;
  /// Encoding asked for (JSON member "encoding"; absent, or a name this
  /// codec does not know, asks for JSON).
  Encoding encoding = Encoding::Json;

  bool operator==(const HelloRequest&) const = default;
};

struct Request {
  std::uint64_t id = 0;  // client-chosen correlation id, echoed verbatim
  /// Envelope version this request was (or will be) encoded with.  v1 and
  /// v2 frames are shape-identical apart from HELLO (v2 only); servers
  /// accept both, so recorded v1 traces still decode.
  std::uint32_t version = kProtocolVersion;
  Command command = Command::Stats;
  /// Payload; monostate for the parameterless commands (STATS, VERIFY).
  std::variant<std::monostate, NegotiateRequest, CancelRequest, ResizeRequest,
               HelloRequest>
      payload;

  bool operator==(const Request&) const = default;
};

/// Result of a granted or rejected negotiation.  `arrivalSeq` is the
/// server-stamped arrival order (the order in which the single-writer queue
/// admitted the command) — replaying the same specs into an in-process
/// arbitrator in arrivalSeq order reproduces the decisions exactly.
struct NegotiateResult {
  bool admitted = false;
  std::uint64_t jobId = 0;
  std::uint64_t arrivalSeq = 0;
  std::size_t chainIndex = 0;
  double quality = 0.0;
  /// Release actually used (the request's release clamped to the clock).
  Time release = 0;
  std::vector<sched::TaskPlacement> placements;
  /// Control-parameter bindings of the granted chain (empty if none).
  std::map<std::string, std::int64_t> bindings;
  int chainsConsidered = 0;
  int chainsSchedulable = 0;

  bool operator==(const NegotiateResult&) const = default;
};

struct CancelResult {
  std::int64_t freedTicks = 0;

  bool operator==(const CancelResult&) const = default;
};

struct ResizeResult {
  int processorsBefore = 0;
  int processorsAfter = 0;
  std::vector<std::uint64_t> kept;
  std::vector<std::uint64_t> reconfigured;
  std::vector<std::uint64_t> dropped;

  bool operator==(const ResizeResult&) const = default;
};

struct StatsResult {
  int processors = 0;
  Time clock = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  /// Total commands the arbitrator worker(s) have executed.
  std::uint64_t commandsExecuted = 0;
  /// Arbitrator shards serving this machine (1 = classic single-writer).
  /// Decoded tolerantly: responses from older servers default to 1.
  int shards = 1;

  bool operator==(const StatsResult&) const = default;
};

struct VerifyResult {
  bool ok = false;
  std::string firstViolation;
  int violations = 0;

  bool operator==(const VerifyResult&) const = default;
};

/// Server's half of the handshake: the granted protocol version and the
/// per-connection in-flight window actually in force.
struct HelloResult {
  std::uint32_t version = kProtocolVersionV2;
  std::uint32_t window = 1;
  /// Encoding granted: the request's, when the server speaks it.
  Encoding encoding = Encoding::Json;

  bool operator==(const HelloResult&) const = default;
};

/// One committed elastic quality move (arbitrator-initiated renegotiation):
/// the job identified by `jobId` now runs chain `toChain` at `toQuality`.
/// Delivered to the connection that negotiated the job as an unsolicited
/// RESHAPED push frame.
struct ReshapeEvent {
  std::uint64_t jobId = 0;
  bool promotion = false;  // false = demotion
  std::size_t fromChain = 0;
  std::size_t toChain = 0;
  double fromQuality = 0.0;
  double toQuality = 0.0;
  /// The job's placements after the move.
  std::vector<sched::TaskPlacement> placements;

  bool operator==(const ReshapeEvent&) const = default;
};

/// An unsolicited RESHAPED server push (correlation id 0).
struct ReshapedPush {
  std::vector<ReshapeEvent> events;

  bool operator==(const ReshapedPush&) const = default;
};

struct ErrorInfo {
  std::string code;
  std::string message;

  bool operator==(const ErrorInfo&) const = default;
};

struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  std::optional<ErrorInfo> error;  // set iff !ok
  /// Adaptive-window re-advertisement (top-level "window"): when the server
  /// is under queue pressure it stamps the in-flight window it currently
  /// honours on responses and busy errors; clients shrink to
  /// min(granted, advertised) and restore on the first unstamped response.
  std::optional<std::uint32_t> advertisedWindow;
  using Result =
      std::variant<std::monostate, NegotiateResult, CancelResult,
                   ResizeResult, StatsResult, VerifyResult, HelloResult,
                   ReshapedPush>;
  Result result;

  bool operator==(const Response&) const = default;
};

// --- Codecs.  Encoding aborts only on programmer error (TPRM_CHECK);
// decoding never aborts: malformed wire input, numbers outside their
// field's range included, yields a descriptive error.  Frames go straight
// between these structs and the canonical JSON form of
// docs/wire_protocol.md section 2; no JSON tree is built.

[[nodiscard]] std::string encodeRequest(const Request& request);
/// Appends encodeRequest(request)'s bytes to `out`.
void appendRequest(std::string& out, const Request& request);
/// Appends the bytes encodeRequest would produce for a NEGOTIATE of `spec`,
/// without building a Request (and copying the spec into it).
void appendNegotiateRequest(std::string& out, std::uint64_t id,
                            std::uint32_t version,
                            const task::TunableJobSpec& spec, Time release);
[[nodiscard]] std::string encodeResponse(const Response& response);
/// Appends encodeResponse(response)'s bytes to `out` (the server encodes
/// straight into a connection's output buffer with it).
void appendResponse(std::string& out, const Response& response);

struct RequestParseResult {
  std::optional<Request> request;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const { return request.has_value(); }
};
[[nodiscard]] RequestParseResult decodeRequest(std::string_view text);

struct ResponseParseResult {
  std::optional<Response> response;
  std::string error;

  [[nodiscard]] bool ok() const { return response.has_value(); }
};
[[nodiscard]] ResponseParseResult decodeResponse(std::string_view text);

// --- Binary codec (docs/wire_protocol.md section 6).  Fixed-width
// little-endian fields: times as int64 ticks, qualities as IEEE-754 bits,
// strings and arrays behind a uint32 length.  The decoders accept exactly
// the values the JSON codec carries (so a decoded frame round-trips through
// encodeRequest/decodeRequest unchanged) and refuse truncated frames,
// trailing bytes, counts larger than the bytes left and non-finite numbers
// with a descriptive error.  A spec is validated as the JSON decoder
// validates it.

void appendRequestBinary(std::string& out, const Request& request);
/// appendNegotiateRequest's binary twin.
void appendNegotiateRequestBinary(std::string& out, std::uint64_t id,
                                  std::uint32_t version,
                                  const task::TunableJobSpec& spec,
                                  Time release);
[[nodiscard]] std::string encodeRequestBinary(const Request& request);
[[nodiscard]] RequestParseResult decodeRequestBinary(std::string_view frame);
void appendResponseBinary(std::string& out, const Response& response);
[[nodiscard]] std::string encodeResponseBinary(const Response& response);
[[nodiscard]] ResponseParseResult decodeResponseBinary(std::string_view frame);

/// Builds an error response (helper shared by server paths).
[[nodiscard]] Response makeError(std::uint64_t id, std::string code,
                                 std::string message);

}  // namespace tprm::service
