// Clients for the tprmd negotiation service.
//
// The remote half of the paper's per-application QoS agent.  One transport,
// PipelinedClient, speaks the wire protocol (service/protocol.h) over one
// connection: HELLO handshake, many requests in flight, a per-request
// deadline and retry-with-backoff on connect.  QoSAgentClient is the
// blocking one-request-at-a-time agent, a façade over a PipelinedClient
// with window 1.  Nothing throws across the wire boundary: every call
// returns a ClientResult carrying either the typed result or a ClientError.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.h"
#include "obs/metrics.h"
#include "service/protocol.h"

namespace tprm::service {

struct ClientConfig {
  /// Unix-domain endpoint; when non-empty it wins over TCP.
  std::string unixPath;
  /// TCP loopback endpoint, used when unixPath is empty.
  std::string tcpHost = "127.0.0.1";
  std::uint16_t tcpPort = 0;

  /// Per-request budget: the HELLO round trip at connect, each send, and
  /// each wait for a response (a submit blocked on a full window, or
  /// ResponseFuture::get()).  A response that does not come in time fails
  /// the connection with ClientStatus::Timeout; the next call reconnects.
  std::chrono::milliseconds requestDeadline{5'000};
  /// Budget for one connect attempt.
  std::chrono::milliseconds connectTimeout{1'000};
  /// Connect attempts before giving up (>= 1).
  int connectAttempts = 5;
  /// Backoff before the second attempt; doubles each retry up to
  /// `maxConnectBackoff`.
  std::chrono::milliseconds connectBackoff{20};
  /// Cap on the per-retry backoff.  Without it the doubling grows without
  /// bound (20ms doubled 30 times is weeks), so a generous attempt budget
  /// against a slow-to-start server turned into one enormous sleep.
  std::chrono::milliseconds maxConnectBackoff{1'000};

  std::size_t maxFrameBytes = 1 << 20;

  /// Optional caller-owned registry.  When set, connect() records
  /// "client.connect_attempts" and "client.connect_failures"; the blocking
  /// QoSAgentClient also records "client.requests",
  /// "client.request_errors" and an end-to-end latency histogram
  /// ("client.request_us": connect + send + receive as the caller sees it).
  /// Must outlive the client.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Sleep before each connect attempt under `config` (index 0 is the first
/// attempt: no sleep).  Exposed so retry timing is testable without a clock:
/// connectBackoff doubles per retry and clamps at maxConnectBackoff.
[[nodiscard]] std::vector<std::chrono::milliseconds> connectBackoffPlan(
    const ClientConfig& config);

enum class ClientStatus {
  Ok,
  ConnectFailed,   // all connect attempts exhausted
  Timeout,         // request deadline expired
  Disconnected,    // server closed the connection mid-call
  ProtocolError,   // malformed/oversized frame or undecodable response
  ServerError,     // server answered with an error (code/message carried)
  Busy,            // typed backpressure: window exceeded or queue full —
                   // retriable, the connection stays healthy
};

[[nodiscard]] const char* toString(ClientStatus status);

struct ClientError {
  ClientStatus status = ClientStatus::Ok;
  /// Server error code for ServerError (e.g. "bad_request"); empty else.
  std::string code;
  std::string message;
};

/// A typed result or a typed error; never both.
template <typename T>
struct ClientResult {
  std::optional<T> value;
  ClientError error;

  [[nodiscard]] bool ok() const { return value.has_value(); }
  [[nodiscard]] const T& operator*() const { return *value; }
  [[nodiscard]] const T* operator->() const { return &*value; }
};

/// Narrows a raw Response to its typed result, converting a wrong-variant
/// answer (server bug or crossed wires) into a ProtocolError.  A server
/// `busy` error surfaces as ClientStatus::Busy so retry loops need no
/// string matching.
template <typename T>
[[nodiscard]] ClientResult<T> extractResult(ClientResult<Response> response) {
  ClientResult<T> out;
  if (!response.ok()) {
    out.error = std::move(response.error);
    return out;
  }
  if (auto* value = std::get_if<T>(&response.value->result)) {
    out.value = std::move(*value);
    return out;
  }
  out.error.status = ClientStatus::ProtocolError;
  out.error.message = "response carries an unexpected result type";
  return out;
}

/// Pipelined client: many in-flight requests on one connection, responses
/// correlated by requestId (and therefore allowed to arrive out of order).
///
/// connect() performs the HELLO handshake, requesting `window` concurrent
/// requests; the server grants min(requested, its own cap) and the granted
/// value governs submission: *Async() blocks (briefly — the server is
/// answering) once the window is full, so a well-behaved client never
/// triggers window `busy` errors.  Queue-full `busy` can still happen under
/// load and surfaces as ClientStatus::Busy — retriable without reconnecting.
///
/// Threading: any number of threads may submit and wait.  There is no
/// reader thread: a thread that needs bytes from the socket reads them
/// itself, and one thread at a time holds the read role (leader/follower).
/// Three kinds of thread read: ResponseFuture::get() while its response has
/// not arrived, a submit blocked on a full window, and drainReshapeEvents()
/// (one non-blocking pass).  The reader routes every frame it decodes — a
/// response to its request's future, a RESHAPED push to the reshape queue,
/// a re-advertised window to the window — then hands the role on; other
/// waiters sleep until their response is in or the role is free.  So a
/// round trip costs the caller a poll() and a recv() and no thread hop.
/// On disconnect every outstanding future fails with Disconnected.  A wait
/// that outlasts ClientConfig::requestDeadline fails the connection, and
/// every outstanding future, with Timeout.
///
/// Pushes are read only while some thread reads: a client that makes no
/// calls leaves its RESHAPED pushes in the socket until its next call or
/// drainReshapeEvents().
class PipelinedClient {
  struct Connection;
  struct Slot;

 public:
  /// Handle to one submitted request's response.  Move-only; get() is
  /// one-shot.  It shares the connection's state, not the client, so a
  /// future read after close() or after the client is destroyed returns
  /// Disconnected.
  class ResponseFuture {
   public:
    ResponseFuture() = default;
    ResponseFuture(ResponseFuture&&) noexcept = default;
    ResponseFuture& operator=(ResponseFuture&&) noexcept = default;
    ResponseFuture(const ResponseFuture&) = delete;
    ResponseFuture& operator=(const ResponseFuture&) = delete;

    /// Blocks until the response arrives, reading the connection itself
    /// when no other thread is; gives up after the request deadline (see
    /// ClientConfig::requestDeadline).  A default-constructed or
    /// already-read future reports Disconnected.
    ClientResult<Response> get();

   private:
    friend class PipelinedClient;
    ResponseFuture(std::shared_ptr<Connection> connection,
                   std::shared_ptr<Slot> slot);

    std::shared_ptr<Connection> connection_;
    std::shared_ptr<Slot> slot_;
  };

  /// `window`: in-flight requests to ask for in the HELLO handshake.
  ///
  /// `corked`: defer writes — submitted frames accumulate in a buffer that
  /// is flushed when the window fills, when the buffer passes ~128 KiB, on
  /// an explicit flush(), or when a thread starts reading for a response.
  /// Batching turns one syscall per request into one per batch (the big win
  /// on a busy pipe).  Leave corking off (the default) to have every
  /// submission hit the wire immediately.
  explicit PipelinedClient(ClientConfig config, std::uint32_t window = 32,
                           bool corked = false);
  ~PipelinedClient();

  PipelinedClient(const PipelinedClient&) = delete;
  PipelinedClient& operator=(const PipelinedClient&) = delete;

  /// Connects (with the ClientConfig retry plan) and runs the HELLO
  /// handshake; a no-op while connected.  Fails with ProtocolError against
  /// a server that does not grant the handshake.  Starts no thread.
  [[nodiscard]] std::optional<ClientError> connect();
  [[nodiscard]] bool connected() const;
  /// Window granted by the server's HELLO response (0 before connect()).
  [[nodiscard]] std::uint32_t grantedWindow() const { return grantedWindow_; }
  /// Payload encoding the HELLO grant put the connection on: binary when
  /// the server echoed the client's request for it, JSON otherwise (and
  /// before connect()).
  [[nodiscard]] Encoding encoding() const;
  /// Window currently honoured: the HELLO grant shrunk by the server's
  /// latest adaptive re-advertisement (== grantedWindow() when the server
  /// is unpressured).
  [[nodiscard]] std::uint32_t currentWindow();
  /// Fails all outstanding futures (Disconnected) and closes the socket.
  /// Safe to call while other threads wait: a thread blocked reading is
  /// woken (the socket is shut down first) and the fd is closed only once
  /// no thread reads it.
  void close();

  /// Reshape events pushed by an elastic server (RESHAPED frames) for jobs
  /// this connection negotiated, oldest first: those routed since the last
  /// drain plus whatever one non-blocking read finds in the socket now.
  [[nodiscard]] std::vector<ReshapeEvent> drainReshapeEvents();

  /// Submit one command; the future resolves when its response arrives.
  /// Blocks while the granted window is full.  Narrow results with
  /// extractResult<NegotiateResult>(...) etc.  The spec is encoded straight
  /// into the send buffer, not copied.
  [[nodiscard]] ResponseFuture negotiateAsync(const task::TunableJobSpec& spec,
                                              Time release);
  [[nodiscard]] ResponseFuture cancelAsync(std::uint64_t jobId);
  [[nodiscard]] ResponseFuture resizeAsync(int processors, Time when);
  [[nodiscard]] ResponseFuture statsAsync();
  [[nodiscard]] ResponseFuture verifyAsync();

  /// Writes every buffered frame to the wire (no-op when uncorked or
  /// nothing is buffered).  On transport failure all outstanding futures
  /// fail with the returned error.
  [[nodiscard]] std::optional<ClientError> flush();

 private:
  /// Appends the frame `encode(out, requestId, encoding)` writes in the
  /// connection's encoding to the send buffer once the window has room.
  template <typename Encode>
  ResponseFuture submit(Encode&& encode);
  /// connect()'s body: socket with retries, then the HELLO round trip.
  [[nodiscard]] std::optional<ClientError> handshake();
  [[nodiscard]] ResponseFuture submit(Request request);

  ClientConfig config_;
  // Cached registry lookups (null when config_.metrics is null).
  obs::Counter* connectAttempts_ = nullptr;
  obs::Counter* connectFailures_ = nullptr;
  std::uint32_t requestedWindow_;
  std::uint32_t grantedWindow_ = 0;  // HELLO grant (cap for the window)
  bool corked_;
  net::FrameLimits frameLimits_;
  /// Set by connect(); shared with every future it issued.
  std::shared_ptr<Connection> connection_;
};

/// Blocking QoS agent: one request at a time over a PipelinedClient with
/// window 1.  Every call connects first when the client is not connected
/// (before the first call, and after a transport failure, a timeout or
/// close()), so a failed call is followed by a reconnect, not an error.
/// Not thread-safe: one caller at a time.
class QoSAgentClient {
 public:
  explicit QoSAgentClient(ClientConfig config);

  QoSAgentClient(const QoSAgentClient&) = delete;
  QoSAgentClient& operator=(const QoSAgentClient&) = delete;

  /// Connects eagerly (calls also connect lazily).  Useful to surface
  /// endpoint problems before the first negotiation.
  [[nodiscard]] std::optional<ClientError> connect() {
    return pipe_.connect();
  }
  [[nodiscard]] bool connected() const { return pipe_.connected(); }
  void close() { pipe_.close(); }

  /// Static negotiation (Section 3.1) across the wire: sends every chain of
  /// `spec`, receives the decision.  `release` is clamped forward to the
  /// arbitrator's clock server-side.
  [[nodiscard]] ClientResult<NegotiateResult> negotiate(
      const task::TunableJobSpec& spec, Time release);

  [[nodiscard]] ClientResult<CancelResult> cancel(std::uint64_t jobId);
  [[nodiscard]] ClientResult<ResizeResult> resize(int processors, Time when);
  [[nodiscard]] ClientResult<StatsResult> stats();
  [[nodiscard]] ClientResult<VerifyResult> verify();
  /// Reshape events pushed for jobs this connection negotiated (elastic
  /// mode); see PipelinedClient::drainReshapeEvents.  A push is written
  /// before any later response on the connection, so after one more call
  /// (a STATS, say) every move of the earlier calls is in.
  [[nodiscard]] std::vector<ReshapeEvent> drainReshapeEvents() {
    return pipe_.drainReshapeEvents();
  }

 private:
  /// Connects if needed, submits through `submit`, waits for the response
  /// and narrows it to T, recording the request metrics.
  template <typename T, typename Submit>
  ClientResult<T> call(Submit&& submit);

  PipelinedClient pipe_;
  // Cached registry lookups (null when no registry is configured).
  obs::Counter* requests_ = nullptr;
  obs::Counter* requestErrors_ = nullptr;
  obs::HistogramMetric* requestLatencyUs_ = nullptr;
};

}  // namespace tprm::service
