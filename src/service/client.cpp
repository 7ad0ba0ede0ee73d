#include "service/client.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "net/socket.h"
#include "obs/trace.h"

namespace tprm::service {

namespace {

using Clock = std::chrono::steady_clock;

ClientError transportError(ClientStatus status, std::string message) {
  ClientError error;
  error.status = status;
  error.message = std::move(message);
  return error;
}

ClientStatus fromFrameStatus(net::FrameStatus status) {
  switch (status) {
    case net::FrameStatus::Ok: return ClientStatus::Ok;
    case net::FrameStatus::Timeout: return ClientStatus::Timeout;
    case net::FrameStatus::Closed: return ClientStatus::Disconnected;
    case net::FrameStatus::TooLarge: return ClientStatus::ProtocolError;
    case net::FrameStatus::Error: return ClientStatus::ProtocolError;
  }
  return ClientStatus::ProtocolError;
}

/// Converts a decoded server error into the typed client error, mapping the
/// `busy` code onto its own retriable status.
ClientError fromServerError(const Response& response) {
  ClientError error;
  error.status = response.error->code == "busy" ? ClientStatus::Busy
                                                : ClientStatus::ServerError;
  error.code = response.error->code;
  error.message = response.error->message;
  return error;
}

}  // namespace

const char* toString(ClientStatus status) {
  switch (status) {
    case ClientStatus::Ok: return "ok";
    case ClientStatus::ConnectFailed: return "connect failed";
    case ClientStatus::Timeout: return "timeout";
    case ClientStatus::Disconnected: return "disconnected";
    case ClientStatus::ProtocolError: return "protocol error";
    case ClientStatus::ServerError: return "server error";
    case ClientStatus::Busy: return "busy";
  }
  return "unknown";
}

std::vector<std::chrono::milliseconds> connectBackoffPlan(
    const ClientConfig& config) {
  const int attempts = std::max(1, config.connectAttempts);
  std::vector<std::chrono::milliseconds> plan(
      static_cast<std::size_t>(attempts));  // plan[0] stays 0: try at once
  const auto cap = std::max(config.maxConnectBackoff,
                            std::chrono::milliseconds{0});
  auto backoff = std::clamp(config.connectBackoff,
                            std::chrono::milliseconds{0}, cap);
  for (std::size_t attempt = 1; attempt < plan.size(); ++attempt) {
    plan[attempt] = backoff;
    // Clamp before doubling so the growth can never overflow the rep.
    backoff = backoff >= cap / 2 ? cap : backoff * 2;
  }
  return plan;
}

// --- PipelinedClient -------------------------------------------------------

namespace {

/// Corked-mode buffer level that forces a flush even while the window still
/// has room: keeps the buffer bounded when frames are large.
constexpr std::size_t kCorkFlushBytes = 128 * 1024;

ClientResult<Response> failed(ClientStatus status, std::string message) {
  ClientResult<Response> out;
  out.error = transportError(status, std::move(message));
  return out;
}

ClientError deadlineExpired() {
  return transportError(ClientStatus::Timeout,
                        "no response within the request deadline");
}

}  // namespace

/// One request's response, shared by its future and (until the response
/// arrives) the connection's pending list.  Guarded by Connection::mu.
struct PipelinedClient::Slot {
  std::optional<ClientResult<Response>> result;
};

/// State of one connection, shared by the client and its futures.
struct PipelinedClient::Connection {
  Connection(net::Socket connected, net::FrameLimits frameLimits,
             std::chrono::milliseconds deadline, std::uint32_t granted,
             Encoding grantedEncoding, bool corkedWrites)
      : socket(std::move(connected)),
        limits(frameLimits),
        requestDeadline(deadline),
        grantedWindow(granted),
        encoding(grantedEncoding),
        corked(corkedWrites),
        window(granted),
        decoder(frameLimits) {}

  /// Waits until `done()` holds or the connection dies, reading the socket
  /// itself whenever no other thread holds the read role.  Past `until`
  /// the connection fails with Timeout.  Requires `lock` held.
  template <typename Done>
  void awaitLocked(std::unique_lock<std::mutex>& lock, Clock::time_point until,
                   Done done);
  /// Takes the read role, reads once from the socket (waiting for data
  /// until `wait` expires, or, without `wait`, only what is ready now),
  /// routes every whole frame, and gives the role back.  Requires `lock`
  /// held, the connection alive and neither closing nor read by another
  /// thread; returns with `lock` held.
  void readOnce(std::unique_lock<std::mutex>& lock, const net::Deadline* wait);
  /// Delivers one decoded frame.  Requires mu.
  void route(Response& response);
  /// Writes the send buffer out.  Requires mu; the caller must
  /// failAllLocked() when this reports an error.
  [[nodiscard]] std::optional<ClientError> flushLocked();
  /// Marks the connection dead, fails every pending request with `error`
  /// and wakes a blocked reader.  Requires mu; the first failure wins.
  void failAllLocked(const ClientError& error);
  void close();

  // Fixed at connect.  The fd is closed only by close(), once nobody
  // reads it; until then shutdown() is the only way to stop a reader.
  net::Socket socket;
  const net::FrameLimits limits;
  const std::chrono::milliseconds requestDeadline;
  const std::uint32_t grantedWindow;
  /// Payload encoding after the HELLO exchange, both ways.
  const Encoding encoding;
  const bool corked;

  std::mutex mu;
  /// Signalled when a slot fills, the read role frees, the window opens or
  /// the connection dies.
  std::condition_variable changed;
  std::atomic<bool> alive{true};  // written under mu
  bool closing = false;
  bool reading = false;           // a thread holds the read role
  std::uint32_t window;           // honoured window
  std::uint64_t nextRequestId = 2;  // 1 was the HELLO
  std::string outbuf;             // framed requests not yet written
  std::vector<std::pair<std::uint64_t, std::shared_ptr<Slot>>> pending;
  std::vector<ReshapeEvent> reshapes;

  // Owned by the read-role holder, used without mu.
  net::FrameDecoder decoder;
  std::vector<Response> decoded;
};

template <typename Done>
void PipelinedClient::Connection::awaitLocked(std::unique_lock<std::mutex>& lock,
                                              Clock::time_point until,
                                              Done done) {
  while (alive.load() && !done()) {
    if (closing) {  // close() fails every pending request shortly
      changed.wait(lock);
      continue;
    }
    if (reading) {
      if (changed.wait_until(lock, until) == std::cv_status::timeout &&
          !done() && !closing) {
        failAllLocked(deadlineExpired());
      }
      continue;
    }
    // Frames may still sit in a corked buffer: they must be on the wire
    // before waiting for their answers.
    if (auto error = flushLocked()) {
      failAllLocked(*error);
      return;
    }
    const auto wait = net::Deadline::after(
        std::chrono::ceil<std::chrono::milliseconds>(until - Clock::now()));
    readOnce(lock, &wait);
    if (!done() && !closing && Clock::now() >= until) {
      failAllLocked(deadlineExpired());
    }
  }
}

void PipelinedClient::Connection::readOnce(std::unique_lock<std::mutex>& lock,
                                           const net::Deadline* wait) {
  reading = true;
  lock.unlock();
  std::optional<ClientError> failure;
  // Wait in poll(), not in a blocking recv: a Unix-socket recv sleeper is
  // also woken each time the server consumes one of our requests (the
  // kernel's write-space wakeup shares the socket's wait queue), which
  // costs a spurious context switch per round trip; poll filters that
  // wakeup out by its event mask.
  const auto ready =
      wait != nullptr ? socket.waitReadable(*wait) : net::IoResult{};
  net::IoChunk chunk{ready.status, 0, ready.message};
  if (ready.ok()) {
    const auto space = decoder.prepare();
    chunk = socket.readAvailable(space.data(), space.size());
  }
  if (chunk.ok()) {
    decoder.commit(chunk.bytes);
    std::string_view payload;
    while (decoder.next(&payload)) {
      auto response = encoding == Encoding::Binary
                          ? decodeResponseBinary(payload)
                          : decodeResponse(payload);
      if (!response.ok()) {
        failure = transportError(ClientStatus::ProtocolError, response.error);
        break;
      }
      decoded.push_back(std::move(*response.response));
    }
    if (decoder.failed()) {
      failure = transportError(ClientStatus::ProtocolError, decoder.message());
    }
  } else if (chunk.status == net::IoStatus::Closed) {
    failure = transportError(ClientStatus::Disconnected,
                             "server closed the connection");
  } else if (chunk.status == net::IoStatus::Error) {
    failure = transportError(ClientStatus::Disconnected, chunk.message);
  }  // Timeout / WouldBlock: nothing to read yet; the caller decides.
  lock.lock();
  reading = false;
  for (auto& response : decoded) route(response);
  decoded.clear();
  // A read ended by close()'s shutdown is close()'s to report.
  if (failure && !closing) failAllLocked(*failure);
  changed.notify_all();
}

void PipelinedClient::Connection::route(Response& response) {
  // Adaptive window: shrink to the server's re-advertisement; restore to
  // the HELLO grant on the first unstamped frame.
  window = response.advertisedWindow.has_value()
               ? std::clamp<std::uint32_t>(*response.advertisedWindow, 1,
                                           grantedWindow)
               : grantedWindow;
  // Unsolicited RESHAPED push: it consumes no pending slot.
  if (auto* reshaped = std::get_if<ReshapedPush>(&response.result)) {
    for (auto& event : reshaped->events) reshapes.push_back(std::move(event));
    return;
  }
  const auto it = std::find_if(
      pending.begin(), pending.end(),
      [&](const auto& entry) { return entry.first == response.id; });
  if (it == pending.end()) return;  // e.g. correlation id 0 after desync
  auto& result = it->second->result.emplace();
  if (response.ok) {
    result.value = std::move(response);
  } else {
    result.error = fromServerError(response);
  }
  *it = std::move(pending.back());
  pending.pop_back();
}

std::optional<ClientError> PipelinedClient::Connection::flushLocked() {
  if (outbuf.empty()) return std::nullopt;
  // A stall here means the server is wedged AND the pipe is full; the
  // deadline converts that into a failed connection, not a hung client.
  const auto written = socket.writeAll(outbuf.data(), outbuf.size(),
                                       net::Deadline::after(requestDeadline));
  outbuf.clear();
  if (written.ok()) return std::nullopt;
  return transportError(written.status == net::IoStatus::Timeout
                            ? ClientStatus::Timeout
                            : ClientStatus::Disconnected,
                        written.message.empty()
                            ? net::toString(written.status)
                            : written.message);
}

void PipelinedClient::Connection::failAllLocked(const ClientError& error) {
  if (!alive.load()) return;
  alive.store(false);
  socket.shutdown();
  for (auto& [id, slot] : pending) {
    slot->result.emplace().error = error;
  }
  pending.clear();
  outbuf.clear();
  changed.notify_all();
}

void PipelinedClient::Connection::close() {
  std::unique_lock<std::mutex> lock(mu);
  if (closing) return;
  closing = true;
  // Wake a reader blocked in poll, then wait for it to let go of the fd.
  socket.shutdown();
  changed.wait(lock, [this] { return !reading; });
  failAllLocked(transportError(ClientStatus::Disconnected, "client closed"));
  socket.close();
}

PipelinedClient::ResponseFuture::ResponseFuture(
    std::shared_ptr<Connection> connection, std::shared_ptr<Slot> slot)
    : connection_(std::move(connection)), slot_(std::move(slot)) {}

ClientResult<Response> PipelinedClient::ResponseFuture::get() {
  if (slot_ == nullptr) {
    return failed(ClientStatus::Disconnected, "future holds no request");
  }
  const auto slot = std::move(slot_);
  const auto connection = std::move(connection_);
  if (connection == nullptr) return std::move(*slot->result);
  Connection& c = *connection;
  const auto until = Clock::now() + c.requestDeadline;
  std::unique_lock<std::mutex> lock(c.mu);
  c.awaitLocked(lock, until, [&] { return slot->result.has_value(); });
  // Unreachable: a connection that dies fills every pending slot.
  if (!slot->result.has_value()) {
    slot->result =
        failed(ClientStatus::Disconnected, "pipelined connection is down");
  }
  return std::move(*slot->result);
}

PipelinedClient::PipelinedClient(ClientConfig config, std::uint32_t window,
                                 bool corked)
    : config_(std::move(config)),
      requestedWindow_(std::max<std::uint32_t>(window, 1)),
      corked_(corked),
      frameLimits_{config_.maxFrameBytes} {
  if (config_.metrics != nullptr) {
    connectAttempts_ = &config_.metrics->counter("client.connect_attempts");
    connectFailures_ = &config_.metrics->counter("client.connect_failures");
  }
}

PipelinedClient::~PipelinedClient() { close(); }

bool PipelinedClient::connected() const {
  return connection_ != nullptr && connection_->alive.load();
}

std::optional<ClientError> PipelinedClient::connect() {
  if (connected()) return std::nullopt;
  close();
  auto error = handshake();
  if (error.has_value() && connectFailures_ != nullptr) {
    connectFailures_->add();
  }
  return error;
}

std::optional<ClientError> PipelinedClient::handshake() {
  net::Socket socket;
  std::string lastError;
  const auto plan = connectBackoffPlan(config_);
  for (std::size_t attempt = 0; attempt < plan.size(); ++attempt) {
    if (plan[attempt].count() > 0) std::this_thread::sleep_for(plan[attempt]);
    if (connectAttempts_ != nullptr) connectAttempts_->add();
    const auto deadline = net::Deadline::after(config_.connectTimeout);
    auto connected = config_.unixPath.empty()
                         ? net::connectTcp(config_.tcpHost, config_.tcpPort,
                                           deadline)
                         : net::connectUnix(config_.unixPath, deadline);
    if (connected.ok()) {
      socket = std::move(connected.socket);
      break;
    }
    lastError = connected.error;
  }
  if (!socket.valid()) {
    return transportError(ClientStatus::ConnectFailed,
                          "after " + std::to_string(plan.size()) +
                              " attempts: " + lastError);
  }

  // HELLO handshake, synchronous: nothing may be sent before the grant.
  // Binary frames are asked for; a server that does not echo the request
  // in its grant keeps the connection on JSON.
  Request hello;
  hello.version = kProtocolVersionV2;
  hello.command = Command::Hello;
  hello.id = 1;
  hello.payload = HelloRequest{requestedWindow_, Encoding::Binary};
  const auto deadline = net::Deadline::after(config_.requestDeadline);
  const auto written =
      net::writeFrame(socket, encodeRequest(hello), frameLimits_, deadline);
  if (!written.ok()) {
    return transportError(fromFrameStatus(written.status), written.message);
  }
  auto frame = net::readFrame(socket, frameLimits_, deadline, deadline);
  if (!frame.ok()) {
    return transportError(fromFrameStatus(frame.status), frame.message);
  }
  auto decoded = decodeResponse(frame.payload);
  if (!decoded.ok()) {
    return transportError(ClientStatus::ProtocolError, decoded.error);
  }
  if (!decoded.response->ok) {
    auto error = fromServerError(*decoded.response);
    // A server that refuses the handshake (an old v1-only one answers
    // bad_request) is a protocol mismatch, not a server-side failure.
    if (error.status == ClientStatus::ServerError) {
      error.status = ClientStatus::ProtocolError;
    }
    return error;
  }
  const auto* granted = std::get_if<HelloResult>(&decoded.response->result);
  if (granted == nullptr || granted->version != kProtocolVersionV2 ||
      granted->window == 0) {
    return transportError(ClientStatus::ProtocolError,
                          "HELLO response is not a v2 grant");
  }
  grantedWindow_ = granted->window;
  connection_ = std::make_shared<Connection>(
      std::move(socket), frameLimits_, config_.requestDeadline,
      granted->window, granted->encoding, corked_);
  return std::nullopt;
}

Encoding PipelinedClient::encoding() const {
  return connection_ != nullptr ? connection_->encoding : Encoding::Json;
}

std::uint32_t PipelinedClient::currentWindow() {
  if (connection_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(connection_->mu);
  return connection_->window;
}

std::vector<ReshapeEvent> PipelinedClient::drainReshapeEvents() {
  std::vector<ReshapeEvent> out;
  if (connection_ == nullptr) return out;
  Connection& c = *connection_;
  std::unique_lock<std::mutex> lock(c.mu);
  if (c.alive.load() && !c.closing && !c.reading) {
    c.readOnce(lock, /*wait=*/nullptr);
  }
  out.swap(c.reshapes);
  return out;
}

void PipelinedClient::close() {
  if (connection_ != nullptr) connection_->close();
}

template <typename Encode>
PipelinedClient::ResponseFuture PipelinedClient::submit(Encode&& encode) {
  auto slot = std::make_shared<Slot>();
  if (connection_ == nullptr) {
    slot->result = failed(ClientStatus::Disconnected, "not connected");
    return ResponseFuture(nullptr, std::move(slot));
  }
  Connection& c = *connection_;
  const auto until = Clock::now() + c.requestDeadline;
  std::unique_lock<std::mutex> lock(c.mu);
  // A full window waits on responses: make sure every buffered frame is on
  // the wire, then read them (or let the thread that is reading do it).
  c.awaitLocked(lock, until, [&] { return c.pending.size() < c.window; });
  if (!c.alive.load()) {
    slot->result = failed(ClientStatus::Disconnected,
                          "pipelined connection is down");
    return ResponseFuture(nullptr, std::move(slot));
  }
  const std::uint64_t id = c.nextRequestId++;
  // Encode under mu, straight into the send buffer: submissions from
  // several threads must not interleave frame bytes.  The frame reaches the
  // wire right away (uncorked) or on the next batch flush.
  const auto appended = net::appendFrameInPlace(
      c.outbuf, c.limits,
      [&](std::string& out) { encode(out, id, c.encoding); });
  if (!appended.ok()) {
    // Local refusal (oversized payload): the frame was rolled back and
    // nothing touched the wire, so only this request fails and the
    // connection stays healthy.
    slot->result =
        failed(fromFrameStatus(appended.status), appended.message);
    return ResponseFuture(nullptr, std::move(slot));
  }
  c.pending.emplace_back(id, slot);
  // A full window means the caller is about to block on a response, so
  // every buffered frame must be on the wire — otherwise the responses it
  // waits for could never come.
  const bool mustFlush = !c.corked || c.pending.size() >= c.window ||
                         c.outbuf.size() >= kCorkFlushBytes;
  if (mustFlush) {
    if (auto error = c.flushLocked()) {
      c.failAllLocked(*error);  // resolves this request's slot too
    }
  }
  return ResponseFuture(connection_, std::move(slot));
}

PipelinedClient::ResponseFuture PipelinedClient::submit(Request request) {
  return submit(
      [&request](std::string& out, std::uint64_t id, Encoding encoding) {
        request.version = kProtocolVersionV2;
        request.id = id;
        if (encoding == Encoding::Binary) {
          appendRequestBinary(out, request);
        } else {
          appendRequest(out, request);
        }
      });
}

std::optional<ClientError> PipelinedClient::flush() {
  if (connection_ == nullptr) return std::nullopt;
  Connection& c = *connection_;
  std::lock_guard<std::mutex> lock(c.mu);
  auto error = c.flushLocked();
  if (error.has_value()) c.failAllLocked(*error);
  return error;
}

PipelinedClient::ResponseFuture PipelinedClient::negotiateAsync(
    const task::TunableJobSpec& spec, Time release) {
  return submit([&](std::string& out, std::uint64_t id, Encoding encoding) {
    if (encoding == Encoding::Binary) {
      appendNegotiateRequestBinary(out, id, kProtocolVersionV2, spec, release);
    } else {
      appendNegotiateRequest(out, id, kProtocolVersionV2, spec, release);
    }
  });
}

PipelinedClient::ResponseFuture PipelinedClient::cancelAsync(
    std::uint64_t jobId) {
  Request request;
  request.command = Command::Cancel;
  request.payload = CancelRequest{jobId};
  return submit(std::move(request));
}

PipelinedClient::ResponseFuture PipelinedClient::resizeAsync(int processors,
                                                             Time when) {
  Request request;
  request.command = Command::Resize;
  request.payload = ResizeRequest{processors, when};
  return submit(std::move(request));
}

PipelinedClient::ResponseFuture PipelinedClient::statsAsync() {
  Request request;
  request.command = Command::Stats;
  return submit(std::move(request));
}

PipelinedClient::ResponseFuture PipelinedClient::verifyAsync() {
  Request request;
  request.command = Command::Verify;
  return submit(std::move(request));
}

// --- QoSAgentClient --------------------------------------------------------

QoSAgentClient::QoSAgentClient(ClientConfig config)
    : pipe_(config, /*window=*/1) {
  if (config.metrics != nullptr) {
    requests_ = &config.metrics->counter("client.requests");
    requestErrors_ = &config.metrics->counter("client.request_errors");
    requestLatencyUs_ =
        &obs::latencyHistogram(*config.metrics, "client.request_us");
  }
}

template <typename T, typename Submit>
ClientResult<T> QoSAgentClient::call(Submit&& submit) {
  if (requests_ != nullptr) requests_->add();
  const std::int64_t start =
      requestLatencyUs_ != nullptr ? obs::monotonicNanos() : 0;
  ClientResult<Response> response;
  if (auto error = pipe_.connect()) {
    response.error = std::move(*error);
  } else {
    response = submit().get();
  }
  if (requestLatencyUs_ != nullptr) {
    requestLatencyUs_->record(
        static_cast<double>(obs::monotonicNanos() - start) / 1'000.0);
  }
  if (!response.ok() && requestErrors_ != nullptr) requestErrors_->add();
  return extractResult<T>(std::move(response));
}

ClientResult<NegotiateResult> QoSAgentClient::negotiate(
    const task::TunableJobSpec& spec, Time release) {
  return call<NegotiateResult>(
      [&] { return pipe_.negotiateAsync(spec, release); });
}

ClientResult<CancelResult> QoSAgentClient::cancel(std::uint64_t jobId) {
  return call<CancelResult>([&] { return pipe_.cancelAsync(jobId); });
}

ClientResult<ResizeResult> QoSAgentClient::resize(int processors, Time when) {
  return call<ResizeResult>(
      [&] { return pipe_.resizeAsync(processors, when); });
}

ClientResult<StatsResult> QoSAgentClient::stats() {
  return call<StatsResult>([&] { return pipe_.statsAsync(); });
}

ClientResult<VerifyResult> QoSAgentClient::verify() {
  return call<VerifyResult>([&] { return pipe_.verifyAsync(); });
}

}  // namespace tprm::service
