#include "service/server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "qos/command_queue.h"
#include "taskmodel/chain.h"

namespace tprm::service {

namespace {

/// Accept poll granularity: how quickly the accept threads notice
/// stopping_.  The event loops use the same slice as their epoll timeout so
/// idle sweeps and shutdown flags are honoured promptly.
constexpr std::chrono::milliseconds kPollSlice{50};

using Clock = std::chrono::steady_clock;

qos::ShardedOptions shardedOptions(const ServerConfig& config) {
  qos::ShardedOptions options;
  options.shards = config.shards;
  options.greedy = config.options;
  options.spill = config.shardSpill;
  options.gang = config.shardGang;
  return options;
}

}  // namespace

std::uint32_t adaptiveWindow(std::size_t queueDepth,
                             std::size_t queueCapacity,
                             std::uint32_t fullWindow) {
  const std::uint32_t full = std::max<std::uint32_t>(fullWindow, 1);
  if (queueCapacity == 0 || full == 1) return full;
  if (queueDepth * 2 >= queueCapacity) {
    return std::max<std::uint32_t>(1, full / 8);
  }
  if (queueDepth * 4 >= queueCapacity) {
    return std::max<std::uint32_t>(1, full / 2);
  }
  return full;
}

/// One decoded, stamped command.  On the inline path it lives on the event
/// loop's stack; queued, it travels to a worker thread and is immutable once
/// pushed: the worker reads it, the loop never touches it again (responses
/// come back as a separate ResponseMsg).
struct NegotiationServer::PendingCommand {
  Request request;
  std::uint64_t arrivalSeq = 0;
  /// Global job id reserved at enqueue (NEGOTIATE only): fixes the home
  /// shard before the command is queued.
  std::optional<std::uint64_t> presetJobId;
  /// Stamped at enqueue when observability is on (0 otherwise).
  std::int64_t enqueuedNs = 0;
  /// Where the response goes: the loop that owns the connection, and the
  /// connection itself, and the encoding that connection speaks.
  int loopIndex = 0;
  std::uint64_t connId = 0;
  Encoding encoding = Encoding::Json;
};

/// A finished command's encoded response — or a batch of reshape push
/// events — travelling to the loop that owns the connection.
struct NegotiationServer::ResponseMsg {
  /// Owning loop; set on push messages, whose connection is found through
  /// originByJob_ rather than the command.
  int loopIndex = 0;
  std::uint64_t connId = 0;
  std::string payload;  // encoded response (empty for push batches)
  /// Unsolicited reshape notification: does not consume an in-flight slot;
  /// the loop encodes it as a RESHAPED push frame.
  bool push = false;
  std::vector<ReshapeEvent> events;  // push batches only
};

/// Per-connection state, owned exclusively by its event-loop thread.
struct NegotiationServer::Connection {
  std::uint64_t id = 0;
  net::Socket socket;
  net::FrameDecoder decoder;
  /// Buffered output: framed responses awaiting the wire, back to back.
  /// Responses run on this loop are encoded into it in place, behind a
  /// length prefix patched afterwards; worker-encoded ones are framed into
  /// it with one copy.  One write covers every frame; out[0, outOff) has
  /// already been sent.
  std::string out;
  std::size_t outOff = 0;
  bool wantWrite = false;  // EPOLLOUT armed
  bool closing = false;    // close once every pending response has flushed
  bool closed = false;     // socket gone; awaiting reap
  bool helloDone = false;  // HELLO handshake completed
  /// Payload encoding of every frame after the HELLO exchange, both ways.
  Encoding encoding = Encoding::Json;
  std::uint32_t window = 1;    // negotiated in-flight cap
  std::uint32_t inFlight = 0;  // commands enqueued, response not delivered
  Clock::time_point lastActivity{};

  [[nodiscard]] bool outPending() const { return outOff < out.size(); }
};

/// One event loop: epoll set, eventfd wakeup, and the MPSC inbox other
/// threads use to hand it work (new connections from the acceptors,
/// responses and pushes from the shard workers, shutdown phases from
/// stop()).
struct NegotiationServer::Loop {
  int index = 0;
  net::Epoll epoll;
  net::WakeupFd wakeup;
  std::thread thread;

  std::mutex inboxMu;
  std::vector<net::Socket> pendingConns;       // guarded by inboxMu
  std::vector<ResponseMsg> pendingResponses;   // guarded by inboxMu
  bool drainRequested = false;                 // guarded by inboxMu
  bool finishRequested = false;                // guarded by inboxMu

  // Loop-thread-local state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
  std::vector<std::uint64_t> doomed;  // closed this cycle; erased at reap
  /// Shards whose consumer claim this loop took for inline execution
  /// during the current read batch; released by finishBatch().
  std::vector<std::size_t> heldClaims;
  /// Connections written to since the last flush (finishBatch / inbox).
  std::vector<Connection*> touched;
  /// Scratch reused across commands: posted responses taken from the
  /// inbox, and the pushes of one inline command.
  std::vector<ResponseMsg> posted;
  std::vector<ResponseMsg> pushes;
  bool draining = false;
  bool finishing = false;
  Clock::time_point finishDeadline{};
  Clock::time_point lastSweep{};
};

/// One shard's command queue (qos/command_queue.h) and the worker draining
/// it.  Producers never block (the loop threads must not stall); at or
/// above commandQueueCapacity, enqueue() refuses a command with `busy`
/// before stamping it.
struct NegotiationServer::ShardQueue {
  int index = 0;
  qos::CommandQueue<std::shared_ptr<PendingCommand>> impl;
  /// "server.queue_depth" (shards == 1) / "server.queue_depth.shard<k>".
  /// Sampled at enqueue from the depth the push itself observed, so the
  /// high-water mark catches every peak even when the worker drains whole
  /// batches between samples.
  obs::Gauge* depth = nullptr;
  std::thread worker;
};

NegotiationServer::NegotiationServer(ServerConfig config)
    : config_(std::move(config)),
      frameLimits_{config_.maxFrameBytes},
      arbitrator_(config_.processors, shardedOptions(config_)) {
  config_.eventLoops = std::max(config_.eventLoops, 1);
  config_.workerBatch = std::max<std::size_t>(config_.workerBatch, 1);
  if (config_.reshapePolicy != nullptr) {
    arbitrator_.attachReshapePolicy(config_.reshapePolicy);
  }
  queues_.reserve(static_cast<std::size_t>(config_.shards));
  for (int k = 0; k < config_.shards; ++k) {
    auto queue = std::make_unique<ShardQueue>();
    queue->index = k;
    queues_.push_back(std::move(queue));
  }
  if (config_.observability) {
    registry_ = std::make_unique<obs::MetricsRegistry>();
    // With one shard the metric names match the unsharded server exactly;
    // with K the per-shard bundles get a shard suffix and the cross-shard
    // events (spill, rebalance) their own bundle.
    std::vector<obs::NegotiationMetrics*> perShard;
    for (int k = 0; k < config_.shards; ++k) {
      const std::string prefix =
          config_.shards == 1 ? "arbitrator"
                              : "arbitrator.shard" + std::to_string(k);
      negotiation_.push_back(std::make_unique<obs::NegotiationMetrics>(
          obs::NegotiationMetrics::fromRegistry(*registry_, prefix)));
      perShard.push_back(negotiation_.back().get());
      queues_[static_cast<std::size_t>(k)]->depth = &registry_->gauge(
          config_.shards == 1 ? "server.queue_depth"
                              : "server.queue_depth.shard" +
                                    std::to_string(k));
    }
    if (config_.shards > 1) {
      shardedMetrics_ = std::make_unique<obs::ShardedMetrics>(
          obs::ShardedMetrics::fromRegistry(*registry_, "sharded"));
    }
    arbitrator_.attachMetrics(std::move(perShard), shardedMetrics_.get());
    trace_ = std::make_unique<obs::TraceRing>(
        std::max<std::size_t>(config_.traceCapacity, 1));
    sessionsActive_ = &registry_->gauge("server.sessions_active");
    queueWaitUs_ = &obs::latencyHistogram(*registry_, "server.queue_wait_us");
    executeUs_ = &obs::latencyHistogram(*registry_, "server.execute_us");
  }
}

NegotiationServer::~NegotiationServer() { stop(); }

bool NegotiationServer::start(std::string* error) {
  TPRM_CHECK(!started_, "start() called twice");
  std::string firstError;
  if (!config_.recordPath.empty() &&
      !traceWriter_.open(config_.recordPath, &firstError)) {
    if (error != nullptr) *error = "record-out: " + firstError;
    return false;
  }
  if (!config_.unixPath.empty()) {
    unixListener_ = net::Listener::listenUnix(config_.unixPath, &firstError);
    if (!unixListener_.valid()) {
      if (error != nullptr) *error = firstError;
      return false;
    }
  }
  if (config_.tcpPort.has_value()) {
    tcpListener_ = net::Listener::listenTcp(*config_.tcpPort, &firstError);
    if (!tcpListener_.valid()) {
      if (error != nullptr) *error = firstError;
      return false;
    }
    boundTcpPort_ = tcpListener_.boundPort();
  }
  if (!unixListener_.valid() && !tcpListener_.valid()) {
    if (error != nullptr) {
      *error = "no listener configured (set unixPath and/or tcpPort)";
    }
    return false;
  }
  for (int i = 0; i < config_.eventLoops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    if (!loop->epoll.open(&firstError) || !loop->wakeup.open(&firstError) ||
        !loop->epoll.add(loop->wakeup.fd(), net::Epoll::kRead, nullptr,
                         &firstError)) {
      if (error != nullptr) *error = "event loop: " + firstError;
      loops_.clear();
      unixListener_.close();
      tcpListener_.close();
      return false;
    }
    loops_.push_back(std::move(loop));
  }
  started_ = true;
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    raw->thread = std::thread([this, raw] { loopMain(raw); });
  }
  for (int k = 0; k < config_.shards; ++k) {
    queues_[static_cast<std::size_t>(k)]->worker =
        std::thread([this, k] { workerLoop(k); });
  }
  if (config_.shards > 1 && config_.rebalanceIntervalMs > 0) {
    rebalanceThread_ = std::thread([this] { rebalanceLoop(); });
  }
  if (unixListener_.valid()) {
    acceptThreads_.emplace_back([this] { acceptLoop(&unixListener_); });
  }
  if (tcpListener_.valid()) {
    acceptThreads_.emplace_back([this] { acceptLoop(&tcpListener_); });
  }
  return true;
}

void NegotiationServer::stop() {
  if (!started_ || stopped_.exchange(true)) return;
  stopping_ = true;

  // 1. Stop admitting connections.
  for (auto& thread : acceptThreads_) thread.join();
  acceptThreads_.clear();
  unixListener_.close();
  tcpListener_.close();
  if (rebalanceThread_.joinable()) rebalanceThread_.join();

  // 2. Drain the loops: stop reading new frames everywhere.  Commands
  // already decoded and enqueued keep executing; their responses keep
  // flowing back through the inboxes and out to the clients.
  for (auto& loop : loops_) {
    {
      std::lock_guard<std::mutex> lock(loop->inboxMu);
      loop->drainRequested = true;
    }
    loop->wakeup.signal();
  }
  while (drainAcks_.load() < static_cast<int>(loops_.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 3. No producers remain: close the queues and join each worker after it
  // has executed everything already admitted.  seqMutex_ serialises the
  // close against any straggling enqueue; close() wakes a parked worker.
  {
    std::lock_guard<std::mutex> lock(seqMutex_);
    queueClosed_.store(true);
  }
  for (auto& queue : queues_) queue->impl.close();
  for (auto& queue : queues_) {
    if (queue->worker.joinable()) queue->worker.join();
  }

  // 4. Finish the loops: deliver the responses the workers just posted,
  // flush every connection's output buffer (bounded by ioTimeout), close
  // the connections, exit.
  for (auto& loop : loops_) {
    {
      std::lock_guard<std::mutex> lock(loop->inboxMu);
      loop->finishRequested = true;
    }
    loop->wakeup.signal();
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }

  // 5. Everything is quiet; flush the wire trace, if any.
  if (traceWriter_.isOpen()) {
    std::string traceError;
    if (!traceWriter_.close(&traceError)) {
      TPRM_LOG(Warn) << "wire trace close failed: " << traceError;
    }
  }
}

ServerCounters NegotiationServer::counters() const {
  ServerCounters counters;
  counters.connectionsAccepted = connectionsAccepted_.load();
  counters.connectionsRefused = connectionsRefused_.load();
  counters.framesMalformed = framesMalformed_.load();
  counters.framesOversized = framesOversized_.load();
  counters.commandsExecuted = commandsExecuted_.load();
  counters.commandsInline = commandsInline_.load();
  for (const auto& queue : queues_) {
    counters.claimMisses += queue->impl.claimMisses();
  }
  counters.disconnectsMidRequest = disconnectsMidRequest_.load();
  counters.busyRejections = busyRejections_.load();
  counters.helloHandshakes = helloHandshakes_.load();
  counters.reshapeEventsDispatched = reshapeEventsDispatched_.load();
  counters.reshapeEventsDropped = reshapeEventsDropped_.load();
  {
    std::lock_guard<std::mutex> lock(originMu_);
    counters.reshapeOrigins = originByJob_.size();
  }
  return counters;
}

JsonValue NegotiationServer::observabilitySnapshot() const {
  const ServerCounters server = counters();
  JsonValue::Object serverObject;
  serverObject["connections_accepted"] =
      static_cast<double>(server.connectionsAccepted);
  serverObject["connections_refused"] =
      static_cast<double>(server.connectionsRefused);
  serverObject["frames_malformed"] =
      static_cast<double>(server.framesMalformed);
  serverObject["frames_oversized"] =
      static_cast<double>(server.framesOversized);
  serverObject["commands_executed"] =
      static_cast<double>(server.commandsExecuted);
  serverObject["commands_inline"] = static_cast<double>(server.commandsInline);
  serverObject["claim_misses"] = static_cast<double>(server.claimMisses);
  serverObject["disconnects_mid_request"] =
      static_cast<double>(server.disconnectsMidRequest);
  serverObject["busy_rejections"] =
      static_cast<double>(server.busyRejections);
  serverObject["hello_handshakes"] =
      static_cast<double>(server.helloHandshakes);
  serverObject["reshape_events_dispatched"] =
      static_cast<double>(server.reshapeEventsDispatched);
  serverObject["reshape_events_dropped"] =
      static_cast<double>(server.reshapeEventsDropped);

  JsonValue::Object root;
  root["enabled"] = registry_ != nullptr;
  root["server"] = JsonValue(std::move(serverObject));
  if (registry_ != nullptr) {
    // Graft the registry snapshot's sections in at top level.
    const JsonValue metrics = registry_->snapshot();
    for (const auto& [key, value] : metrics.asObject()) root[key] = value;
    root["spans"] = trace_->snapshot();
  }
  return JsonValue(std::move(root));
}

void NegotiationServer::acceptLoop(net::Listener* listener) {
  while (!stopping_) {
    auto accepted = listener->accept(net::Deadline::after(kPollSlice));
    if (accepted.status == net::IoStatus::Timeout) continue;
    if (accepted.status != net::IoStatus::Ok) {
      if (!stopping_) {
        TPRM_LOG(Warn) << "tprmd accept failed: " << accepted.message;
      }
      continue;
    }
    if (stopping_ || activeSessions_.load() >= config_.maxSessions) {
      // Refuse politely: the socket closes without a frame; clients see a
      // clean EOF before any response.
      connectionsRefused_.fetch_add(1);
      continue;
    }
    connectionsAccepted_.fetch_add(1);
    activeSessions_.fetch_add(1);
    auto& loop =
        *loops_[nextLoop_.fetch_add(1, std::memory_order_relaxed) %
                loops_.size()];
    {
      std::lock_guard<std::mutex> lock(loop.inboxMu);
      loop.pendingConns.push_back(std::move(accepted.socket));
    }
    loop.wakeup.signal();
  }
}

// --- Event loop ------------------------------------------------------------

void NegotiationServer::loopMain(Loop* loop) {
  // Reserved up front (epoll_wait reports at most 64 events per call), so
  // the loop's first heap allocation happens at thread start, before any
  // acceptor hands it a connection.  glibc gives a new thread the malloc
  // arena most recently released by an exited thread, and the previous
  // server's loop exits last: allocating first, a restarted server's loop
  // reuses the arena its predecessor freed instead of stranding it.
  std::vector<net::Epoll::Event> events;
  events.reserve(64);
  std::string error;
  loop->lastSweep = Clock::now();
  auto reap = [loop] {
    for (const auto id : loop->doomed) loop->conns.erase(id);
    loop->doomed.clear();
  };
  for (;;) {
    if (!loop->epoll.wait(static_cast<int>(kPollSlice.count()), &events,
                          &error)) {
      TPRM_LOG(Warn) << "tprmd event loop: " << error;
      events.clear();
    }
    for (const auto& event : events) {
      if (event.data == nullptr) {
        loop->wakeup.drain();
        processInbox(loop);
        continue;
      }
      auto* conn = static_cast<Connection*>(event.data);
      if (conn->closed) continue;
      if (event.hangup) {
        // Connection torn down both ways: salvage any frames already in
        // the kernel buffer, then drop it.
        if (!loop->draining) handleReadable(loop, conn);
        if (!conn->closed) closeConnection(loop, conn);
        continue;
      }
      if (event.writable) flushOut(loop, conn);
      if (conn->closed) continue;
      if (event.readable && !loop->draining) handleReadable(loop, conn);
    }
    reap();
    const auto now = Clock::now();
    if (!loop->draining &&
        now - loop->lastSweep >= std::chrono::milliseconds(250)) {
      loop->lastSweep = now;
      sweepIdle(loop);
      reap();
    }
    if (loop->finishing) {
      bool allFlushed = true;
      for (const auto& [id, conn] : loop->conns) {
        if (!conn->closed && conn->outPending()) {
          allFlushed = false;
          break;
        }
      }
      if (allFlushed || now >= loop->finishDeadline) {
        for (auto& [id, conn] : loop->conns) {
          if (!conn->closed) closeConnection(loop, conn.get());
        }
        reap();
        return;
      }
    }
  }
}

void NegotiationServer::processInbox(Loop* loop) {
  std::vector<net::Socket> conns;
  bool drainRequested = false;
  bool finishRequested = false;
  {
    std::lock_guard<std::mutex> lock(loop->inboxMu);
    conns.swap(loop->pendingConns);
    drainRequested = loop->drainRequested;
    finishRequested = loop->finishRequested;
  }
  for (auto& socket : conns) registerConnection(loop, std::move(socket));
  // Append every response of the batch to its connection's buffer first,
  // then flush each touched connection once: one write syscall per
  // connection per batch instead of one per response.
  deliverPosted(loop);
  finishBatch(loop);
  if (drainRequested && !loop->draining) {
    loop->draining = true;
    for (auto& [id, conn] : loop->conns) {
      if (!conn->closed) updateInterest(loop, conn.get());
    }
    drainAcks_.fetch_add(1);
  }
  if (finishRequested && !loop->finishing) {
    loop->finishing = true;
    loop->finishDeadline = Clock::now() + config_.ioTimeout;
  }
}

void NegotiationServer::deliverPosted(Loop* loop) {
  {
    std::lock_guard<std::mutex> lock(loop->inboxMu);
    loop->posted.swap(loop->pendingResponses);
  }
  for (auto& msg : loop->posted) deliverMsg(loop, msg);
  loop->posted.clear();
}

void NegotiationServer::deliverMsg(Loop* loop, ResponseMsg& msg) {
  const auto it = loop->conns.find(msg.connId);
  if (it == loop->conns.end() || it->second->closed) {
    if (msg.push) {
      // Reshape events have no reader anymore; the moves themselves are
      // committed arbitrator state either way.
      reshapeEventsDropped_.fetch_add(msg.events.size());
      std::lock_guard<std::mutex> lock(originMu_);
      for (const auto& event : msg.events) originByJob_.erase(event.jobId);
      return;
    }
    // Client vanished between submitting and reading the decision.  The
    // command already executed atomically; state stays consistent.
    disconnectsMidRequest_.fetch_add(1);
    return;
  }
  Connection* conn = it->second.get();
  if (msg.push) {
    // Unsolicited notification: consumes no in-flight slot.
    Response response;
    response.ok = true;
    response.result = ReshapedPush{std::move(msg.events)};
    stampWindow(&response);
    deliverResponse(loop, conn, response);
  } else {
    if (conn->inFlight > 0) --conn->inFlight;
    deliverEncoded(loop, conn, msg.payload);
  }
  if (std::find(loop->touched.begin(), loop->touched.end(), conn) ==
      loop->touched.end()) {
    loop->touched.push_back(conn);
  }
}

void NegotiationServer::finishBatch(Loop* loop) {
  // Claims first: the responses already sit in their output buffers in
  // order, so the write syscalls need not delay a worker waiting to drain.
  for (const std::size_t k : loop->heldClaims) {
    queues_[k]->impl.releaseConsumer();
  }
  loop->heldClaims.clear();
  for (Connection* conn : loop->touched) flushOut(loop, conn);
  loop->touched.clear();
}

void NegotiationServer::executeInline(Loop* loop, Connection* conn, int shard,
                                      PendingCommand& command) {
  // Whatever the workers have already handed this loop goes out first, so
  // an earlier command's response and RESHAPED pushes always precede this
  // later response (the claim just taken orders this shard's earlier
  // executions, and their posts, before us).
  deliverPosted(loop);
  auto& pushes = loop->pushes;
  pushes.clear();
  const Response response = runCommand(shard, command, &pushes);
  commandsInline_.fetch_add(1, std::memory_order_relaxed);
  deliverResponse(loop, conn, response);
  // Pushes follow the response: ours straight into the output buffers,
  // other loops' through their inboxes.
  for (auto& msg : pushes) {
    if (msg.loopIndex == loop->index) {
      deliverMsg(loop, msg);
      continue;
    }
    auto& target = *loops_[static_cast<std::size_t>(msg.loopIndex)];
    {
      std::lock_guard<std::mutex> lock(target.inboxMu);
      target.pendingResponses.push_back(std::move(msg));
    }
    target.wakeup.signal();
  }
}

void NegotiationServer::registerConnection(Loop* loop, net::Socket socket) {
  if (loop->draining) {
    // Raced with shutdown: the acceptor counted it, but the loop will
    // never read from it.  Close; the client sees a clean EOF.
    activeSessions_.fetch_sub(1);
    return;
  }
  auto conn = std::make_unique<Connection>();
  conn->id = nextConnId_.fetch_add(1, std::memory_order_relaxed);
  conn->socket = std::move(socket);
  conn->decoder = net::FrameDecoder(frameLimits_);
  conn->lastActivity = Clock::now();
  (void)conn->socket.setNonBlocking(true);
  std::string error;
  if (!loop->epoll.add(conn->socket.fd(), net::Epoll::kRead, conn.get(),
                       &error)) {
    TPRM_LOG(Warn) << "tprmd register connection: " << error;
    activeSessions_.fetch_sub(1);
    return;
  }
  if (sessionsActive_ != nullptr) sessionsActive_->add(1);
  loop->conns.emplace(conn->id, std::move(conn));
}

void NegotiationServer::handleReadable(Loop* loop, Connection* conn) {
  // Read until WouldBlock, bounded per event so one firehose connection
  // cannot starve the rest of the loop (level-triggered epoll re-fires).
  // Bytes land straight in the frame decoder's buffer: no staging copy.
  for (int round = 0; round < 8; ++round) {
    if (conn->closed || conn->closing || loop->draining) {
      return;
    }
    const auto space = conn->decoder.prepare();
    const auto chunk = conn->socket.readSome(space.data(), space.size());
    if (chunk.status == net::IoStatus::WouldBlock) return;
    if (chunk.status == net::IoStatus::Ok) {
      conn->decoder.commit(chunk.bytes);
      conn->lastActivity = Clock::now();
      processDecodedFrames(loop, conn);
      continue;
    }
    if (chunk.status == net::IoStatus::Closed) {
      // EOF.  Bytes of an unfinished frame mean the peer truncated the
      // stream mid-message.
      if (conn->decoder.pendingBytes() > 0 && !conn->decoder.failed()) {
        framesMalformed_.fetch_add(1);
      }
      closeConnection(loop, conn);
      return;
    }
    TPRM_LOG(Warn) << "tprmd connection read: " << chunk.message;
    closeConnection(loop, conn);
    return;
  }
}

void NegotiationServer::processDecodedFrames(Loop* loop, Connection* conn) {
  std::string_view payload;
  while (!conn->closed && !conn->closing && conn->decoder.next(&payload)) {
    handleFrame(loop, conn, payload);
  }
  if (!conn->closed && !conn->closing && conn->decoder.failed()) {
    framesOversized_.fetch_add(1);
    // The declared payload is never buffered, so the stream is desynced:
    // answer best-effort, then drop the connection once the error flushes.
    conn->closing = true;
    updateInterest(loop, conn);
    deliverResponse(
        loop, conn,
        makeError(0, "frame_too_large", conn->decoder.message()));
  }
  // Responses generated while handling this batch of frames (executed
  // commands, HELLO grants, busy/bad_request errors) leave in one flush.
  finishBatch(loop);
  flushOut(loop, conn);
}

void NegotiationServer::handleFrame(Loop* loop, Connection* conn,
                                    std::string_view payload) {
  auto decoded = conn->encoding == Encoding::Binary
                     ? decodeRequestBinary(payload)
                     : decodeRequest(payload);
  if (!decoded.ok()) {
    // The stream itself is intact (whole frame consumed): report and keep
    // the connection.  Correlation id 0 marks an undecodable request.
    framesMalformed_.fetch_add(1);
    deliverResponse(loop, conn, makeError(0, "bad_request", decoded.error));
    return;
  }
  Request request = std::move(*decoded.request);

  if (!conn->helloDone) {
    if (request.command != Command::Hello) {
      // A client of the retired v1 protocol.  Nothing is stamped (no
      // sequence number, job id or trace record); the connection closes
      // once the error has flushed.
      deliverResponse(loop, conn,
                      makeError(request.id, "unsupported_version",
                                "wire protocol v1 is retired; send HELLO "
                                "first"));
      conn->closing = true;
      updateInterest(loop, conn);
      return;
    }
    conn->helloDone = true;
    const auto& hello = std::get<HelloRequest>(request.payload);
    conn->window = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(hello.window, fullWindow()));
    helloHandshakes_.fetch_add(1);
    Response response;
    response.id = request.id;
    response.ok = true;
    // Binary is granted by echoing it; the grant itself still goes out in
    // JSON, and every frame after it in the granted encoding.
    response.result =
        HelloResult{kProtocolVersionV2, conn->window, hello.encoding};
    deliverResponse(loop, conn, response);
    conn->encoding = hello.encoding;
    return;
  }
  if (request.command == Command::Hello) {
    deliverResponse(loop, conn,
                    makeError(request.id, "bad_request",
                              "HELLO must be the first frame on a connection"));
    return;
  }

  if (const auto* negotiate = std::get_if<NegotiateRequest>(&request.payload)) {
    // Admission bound: a frame can be well-formed with every number in
    // range and still ask for more processor-ticks than the arbitrator's
    // int64 arithmetic holds.  Refused before anything is stamped.
    const auto bound =
        task::admissionBoundError(negotiate->spec, negotiate->release);
    if (!bound.empty()) {
      deliverResponse(loop, conn,
                      makeError(request.id, "bad_request", "bad spec: " + bound));
      return;
    }
  }
  // The honoured window shrinks with shard-queue pressure so pipelined
  // clients throttle before the queues actually fill.
  const std::uint32_t effective = std::min(conn->window, dynamicWindowNow());
  if (conn->inFlight >= effective) {
    busyRejections_.fetch_add(1);
    Response busy =
        makeError(request.id, "busy", "in-flight window exceeded; retry");
    busy.advertisedWindow = effective;
    deliverResponse(loop, conn, busy);
    return;
  }

  PendingCommand command;
  command.request = std::move(request);
  command.loopIndex = loop->index;
  command.connId = conn->id;
  command.encoding = conn->encoding;
  int shard = 0;
  switch (enqueue(loop, command, &shard)) {
    case EnqueueStatus::Inline:
      executeInline(loop, conn, shard, command);
      return;
    case EnqueueStatus::Busy: {
      busyRejections_.fetch_add(1);
      Response busy = makeError(command.request.id, "busy",
                                "command queue full; retry");
      busy.advertisedWindow = std::min(conn->window, dynamicWindowNow());
      deliverResponse(loop, conn, busy);
      return;
    }
    case EnqueueStatus::Closed:
      deliverResponse(loop, conn,
                      makeError(command.request.id, "shutting_down",
                                "server is draining; retry elsewhere"));
      conn->closing = true;
      updateInterest(loop, conn);
      flushOut(loop, conn);
      return;
    case EnqueueStatus::Ok:
      ++conn->inFlight;
      return;
  }
}

void NegotiationServer::deliverResponse(Loop* loop, Connection* conn,
                                        const Response& response) {
  if (conn->closed) return;
  const auto wrote = net::appendFrameInPlace(
      conn->out, frameLimits_, [conn, &response](std::string& out) {
        if (conn->encoding == Encoding::Binary) {
          appendResponseBinary(out, response);
        } else {
          appendResponse(out, response);
        }
      });
  if (!wrote.ok()) frameRefused(loop, conn);
  // No flush here: callers batch — appends accumulate and the caller
  // flushes each touched connection once per event/inbox batch.
}

void NegotiationServer::deliverEncoded(Loop* loop, Connection* conn,
                                       std::string_view payload) {
  if (conn->closed) return;
  if (!net::appendFrame(conn->out, payload, frameLimits_).ok()) {
    frameRefused(loop, conn);
  }
}

void NegotiationServer::frameRefused(Loop* loop, Connection* conn) {
  // A response over the frame limit cannot be sent; the stream would
  // desync if we dropped it silently mid-sequence, so drop the
  // connection (mirrors the blocking server's failed writeFrame).
  if (conn->inFlight == 0) disconnectsMidRequest_.fetch_add(1);
  closeConnection(loop, conn);
}

void NegotiationServer::flushOut(Loop* loop, Connection* conn) {
  if (conn->closed) return;
  const bool drained = conn->inFlight == 0;
  while (conn->outPending()) {
    const auto chunk = conn->socket.writeSome(
        conn->out.data() + conn->outOff, conn->out.size() - conn->outOff);
    if (chunk.bytes > 0) {
      conn->outOff += chunk.bytes;
      conn->lastActivity = Clock::now();
    }
    if (chunk.status == net::IoStatus::Ok) continue;
    if (chunk.status == net::IoStatus::WouldBlock) {
      // Keep the unsent tail; drop the sent head once it dominates, so a
      // slow reader's buffer does not grow without bound.
      if (conn->outOff >= conn->out.size() / 2) {
        conn->out.erase(0, conn->outOff);
        conn->outOff = 0;
      }
      if (!conn->wantWrite) {
        conn->wantWrite = true;
        updateInterest(loop, conn);
      }
      return;
    }
    // Closed/Error with responses pending: the client vanished.  In-flight
    // commands will surface as orphaned responses and are counted there.
    if (conn->inFlight == 0) disconnectsMidRequest_.fetch_add(1);
    closeConnection(loop, conn);
    return;
  }
  // Everything is on the wire: keep the buffer's capacity for the next
  // batch.
  conn->out.clear();
  conn->outOff = 0;
  if (conn->wantWrite) {
    conn->wantWrite = false;
    updateInterest(loop, conn);
  }
  if (conn->closing && drained) closeConnection(loop, conn);
}

void NegotiationServer::updateInterest(Loop* loop, Connection* conn) {
  if (conn->closed) return;
  std::uint32_t interest = 0;
  if (!conn->closing && !loop->draining) {
    interest |= net::Epoll::kRead;
  }
  if (conn->wantWrite) interest |= net::Epoll::kWrite;
  std::string error;
  if (!loop->epoll.modify(conn->socket.fd(), interest, conn, &error)) {
    TPRM_LOG(Warn) << "tprmd epoll modify: " << error;
  }
}

void NegotiationServer::closeConnection(Loop* loop, Connection* conn) {
  if (conn->closed) return;
  conn->closed = true;
  loop->epoll.remove(conn->socket.fd());
  conn->socket.close();
  if (sessionsActive_ != nullptr) sessionsActive_->add(-1);
  activeSessions_.fetch_sub(1);
  loop->doomed.push_back(conn->id);
}

void NegotiationServer::sweepIdle(Loop* loop) {
  if (config_.idleTimeout.count() <= 0) return;
  const auto now = Clock::now();
  for (auto& [id, conn] : loop->conns) {
    Connection* c = conn.get();
    if (c->closed || c->closing) continue;
    if (c->inFlight > 0 || c->outPending()) continue;
    if (now - c->lastActivity > config_.idleTimeout) {
      closeConnection(loop, c);
    }
  }
}

// --- Queue handoff ---------------------------------------------------------

NegotiationServer::EnqueueStatus NegotiationServer::enqueue(
    Loop* loop, PendingCommand& command, int* shard) {
  std::lock_guard<std::mutex> seqLock(seqMutex_);
  if (queueClosed_.load()) return EnqueueStatus::Closed;
  // Route before committing anything: a negotiation's job id — the next to
  // be reserved, peeked here — fixes its home shard; cancels follow the
  // job's home shard so cancel-after-negotiate pairs stay ordered;
  // machine-wide commands serialise through shard 0.
  std::size_t target = 0;
  if (command.request.command == Command::Negotiate) {
    target = static_cast<std::size_t>(
        arbitrator_.homeShard(arbitrator_.peekNextJobId()));
  } else if (command.request.command == Command::Cancel) {
    target = static_cast<std::size_t>(arbitrator_.homeShard(
        std::get<CancelRequest>(command.request.payload).jobId));
  }
  *shard = static_cast<int>(target);
  auto& queue = *queues_[target];
  // approxDepth is exact on the producer side: every push happens under
  // seqMutex_, held here.
  const std::size_t depth = queue.impl.approxDepth();
  if (depth == 0) {
    // Run to completion: nothing of this shard is waiting, so if no other
    // thread is executing on it either (the claim is ours), this loop runs
    // the command itself — no queue, no worker wakeup, no inbox handoff.
    // Per-shard order holds: everything stamped before us has been drained,
    // and whoever drained it has released the claim, i.e. executed it.
    auto& held = loop->heldClaims;
    const bool holding =
        std::find(held.begin(), held.end(), target) != held.end();
    if (holding || queue.impl.tryClaimConsumer()) {
      if (!holding) held.push_back(target);
      stampCommand(&command);
      return EnqueueStatus::Inline;
    }
  }
  if (depth >= config_.commandQueueCapacity) {
    // Backpressure: refuse before drawing a sequence number or job id, so
    // the wire trace and the replayed id stream only ever contain commands
    // that executed.
    return EnqueueStatus::Busy;
  }
  auto queued = std::make_shared<PendingCommand>(std::move(command));
  stampCommand(queued.get());
  const std::size_t pushedDepth = queue.impl.push(std::move(queued));
  if (pushedDepth == 0) {
    // Unreachable in practice — close happens under seqMutex_, checked at
    // entry — but the contract allows it, so don't mislead the caller.
    return EnqueueStatus::Closed;
  }
  if (queue.depth != nullptr) {
    // Sample the depth the push itself observed (not a later re-read): the
    // high-water gauge then sees every peak even when the worker drains a
    // whole batch before the next enqueue (the undercount bugfix).
    queue.depth->set(static_cast<std::int64_t>(pushedDepth));
  }
  return EnqueueStatus::Ok;
}

void NegotiationServer::stampCommand(PendingCommand* command) {
  const bool isNegotiate = command->request.command == Command::Negotiate;
  const std::uint64_t seq = nextArrivalSeq_++;
  command->arrivalSeq = seq;
  if (isNegotiate) command->presetJobId = arbitrator_.reserveJobId();
  if (isNegotiate && config_.reshapePolicy != nullptr) {
    // Remember who negotiated this job so later reshape moves can be
    // routed back to its connection.  Entries die on CANCEL, when the
    // negotiation is rejected, or when a dispatch finds the connection
    // gone.
    std::lock_guard<std::mutex> originLock(originMu_);
    originByJob_[*command->presetJobId] = {command->loopIndex,
                                           command->connId};
  }
  if (traceWriter_.isOpen()) {
    // Re-encode through the canonical codec rather than echoing the client's
    // bytes: replay then decodes exactly what the server decoded, and the
    // file stays well-formed regardless of client-side formatting.
    WireTraceRecord record;
    record.arrivalSeq = seq;
    const std::int64_t nowNs = obs::monotonicNanos();
    record.deltaNanos = lastRecordNs_ == 0
                            ? 0
                            : static_cast<std::uint64_t>(
                                  nowNs - lastRecordNs_);
    lastRecordNs_ = nowNs;
    record.payload = encodeRequest(command->request);
    std::string traceError;
    if (!traceWriter_.append(record, &traceError)) {
      // Recording is observability, not control: a failing disk must not
      // take the negotiation service down.  Stop recording, keep serving.
      TPRM_LOG(Warn) << "wire trace append failed (recording stops): "
                     << traceError;
      (void)traceWriter_.close(nullptr);
    }
  }
  if (trace_ != nullptr) command->enqueuedNs = obs::monotonicNanos();
}

void NegotiationServer::workerLoop(int shard) {
  auto& own = *queues_[static_cast<std::size_t>(shard)];
  std::vector<std::shared_ptr<PendingCommand>> batch;
  std::vector<ResponseMsg> pushes;
  // Sized on the first drained batch: a worker whose shard only ever runs
  // inline touches no heap, and so never takes a malloc arena of its own.
  std::vector<std::vector<ResponseMsg>> perLoop;
  for (;;) {
    if (drainAndExecute(&own, &batch, &pushes, &perLoop)) continue;
    const std::size_t depth = own.impl.approxDepth();
    if (own.impl.closed() && depth == 0) return;
    // Sleep until a producer or close() wakes this queue.  Commands we
    // could not drain mean an event loop holds the claim to run a command
    // inline: sleep until it lets go rather than re-polling a queue that
    // stays non-empty.
    if (depth > 0) {
      own.impl.waitClaimReleased();
    } else {
      own.impl.waitNonEmpty(qos::kWaitForever);
    }
  }
}

bool NegotiationServer::drainAndExecute(
    ShardQueue* queue, std::vector<std::shared_ptr<PendingCommand>>* batchPtr,
    std::vector<ResponseMsg>* pushesPtr,
    std::vector<std::vector<ResponseMsg>>* perLoopPtr) {
  auto& batch = *batchPtr;
  auto& pushes = *pushesPtr;
  auto& perLoop = *perLoopPtr;
  // Empty queues are not claimed at all: a speculative claim would only
  // make an event loop's inline attempt on this shard miss.
  if (queue->impl.approxDepth() == 0 || !queue->impl.tryClaimConsumer()) {
    return false;
  }
  batch.clear();
  if (perLoop.empty()) perLoop.resize(loops_.size());
  // Batched handoff: one claim drains up to workerBatch commands (FIFO, so
  // drain order == arrivalSeq order per shard).
  const std::size_t n = queue->impl.tryDrainUpTo(config_.workerBatch, &batch);
  if (n == 0) {
    queue->impl.releaseConsumer();
    return false;
  }
  if (queue->depth != nullptr) {
    queue->depth->set(static_cast<std::int64_t>(queue->impl.approxDepth()));
  }
  for (const auto& command : batch) {
    pushes.clear();
    ResponseMsg msg;
    msg.connId = command->connId;
    const Response response = runCommand(queue->index, *command, &pushes);
    msg.payload = command->encoding == Encoding::Binary
                      ? encodeResponseBinary(response)
                      : encodeResponse(response);
    perLoop[static_cast<std::size_t>(command->loopIndex)].push_back(
        std::move(msg));
    for (auto& push : pushes) {
      perLoop[static_cast<std::size_t>(push.loopIndex)].push_back(
          std::move(push));
    }
  }
  // One inbox lock + one eventfd wakeup per loop per batch.
  for (std::size_t i = 0; i < perLoop.size(); ++i) {
    if (perLoop[i].empty()) continue;
    auto& loop = *loops_[i];
    {
      std::lock_guard<std::mutex> lock(loop.inboxMu);
      for (auto& msg : perLoop[i]) {
        loop.pendingResponses.push_back(std::move(msg));
      }
    }
    loop.wakeup.signal();
    perLoop[i].clear();
  }
  // Release only after execution and the posts: the claim token is what
  // serialises per-shard execution across the worker and the event loops,
  // and a loop that claims next delivers these posts before its own
  // response.
  queue->impl.releaseConsumer();
  return true;
}

Response NegotiationServer::runCommand(int shard, PendingCommand& command,
                                       std::vector<ResponseMsg>* pushes) {
  if (config_.executeSeamForTest) config_.executeSeamForTest(shard);
  const std::int64_t startNs = trace_ != nullptr ? obs::monotonicNanos() : 0;
  std::vector<qos::QualityMove> moves;
  Response response = execute(command.request, command.arrivalSeq,
                              command.presetJobId, &moves);
  if (config_.reshapePolicy != nullptr) {
    // A rejected job is never live, so no move will ever name it: forget
    // its connection now rather than keep the entry forever.
    const auto* negotiated = std::get_if<NegotiateResult>(&response.result);
    if (negotiated != nullptr && !negotiated->admitted) {
      std::lock_guard<std::mutex> originLock(originMu_);
      originByJob_.erase(negotiated->jobId);
    }
  }
  response.id = command.request.id;
  stampWindow(&response);
  commandsExecuted_.fetch_add(1);
  if (trace_ != nullptr) recordSpan(command, response, startNs);
  // Route each committed quality move to the connection that negotiated
  // the moved job (it may be this command's own connection or any other).
  // Moves with no reachable owner are dropped — the arbitrator state is
  // committed regardless.
  for (const auto& move : moves) {
    std::pair<int, std::uint64_t> origin;
    {
      std::lock_guard<std::mutex> originLock(originMu_);
      const auto it = originByJob_.find(move.jobId);
      if (it == originByJob_.end()) {
        reshapeEventsDropped_.fetch_add(1);
        continue;
      }
      origin = it->second;
    }
    ReshapeEvent event;
    event.jobId = move.jobId;
    event.promotion = move.promotion;
    event.fromChain = move.fromChain;
    event.toChain = move.toChain;
    event.fromQuality = move.fromQuality;
    event.toQuality = move.toQuality;
    event.placements = move.schedule.placements;
    ResponseMsg pushMsg;
    pushMsg.loopIndex = origin.first;
    pushMsg.connId = origin.second;
    pushMsg.push = true;
    pushMsg.events.push_back(std::move(event));
    reshapeEventsDispatched_.fetch_add(1);
    pushes->push_back(std::move(pushMsg));
  }
  return response;
}

void NegotiationServer::rebalanceLoop() {
  const auto interval = std::chrono::milliseconds(config_.rebalanceIntervalMs);
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stopping_) {
    std::this_thread::sleep_for(std::min(kPollSlice, interval));
    if (std::chrono::steady_clock::now() < next) continue;
    next = std::chrono::steady_clock::now() + interval;
    (void)arbitrator_.rebalance(arbitrator_.clock());
  }
}

void NegotiationServer::recordSpan(const PendingCommand& command,
                                   const Response& response,
                                   std::int64_t startNs) {
  obs::TraceSpan span;
  span.name = toString(command.request.command);
  span.queuedNs = command.enqueuedNs;
  span.startNs = startNs;
  span.endNs = obs::monotonicNanos();
  span.requestId = command.request.id;
  span.arrivalSeq = command.arrivalSeq;
  span.ok = response.ok;
  if (const auto* result = std::get_if<NegotiateResult>(&response.result)) {
    span.jobId = result->jobId;
    span.ok = result->admitted;
    if (result->admitted) {
      // Formatted only when the span is read (TraceSpan::detailText).
      span.granted = true;
      span.chainIndex = result->chainIndex;
      span.quality = result->quality;
    } else {
      span.detail = "rejected";
    }
  } else if (!response.ok && response.error.has_value()) {
    span.detail = response.error->code;
  }
  queueWaitUs_->record(span.queueWaitUs());
  executeUs_->record(span.executeUs());
  trace_->record(std::move(span));
}

std::uint32_t NegotiationServer::fullWindow() const {
  return static_cast<std::uint32_t>(std::min<std::size_t>(
      std::max<std::size_t>(config_.maxInFlightPerConnection, 1),
      ~std::uint32_t{0}));
}

std::uint32_t NegotiationServer::dynamicWindowNow() const {
  std::size_t depth = 0;
  for (const auto& queue : queues_) {
    depth = std::max(depth, queue->impl.approxDepth());
  }
  return adaptiveWindow(depth, config_.commandQueueCapacity, fullWindow());
}

void NegotiationServer::stampWindow(Response* response) const {
  const std::uint32_t dynamic = dynamicWindowNow();
  // Stamp only under pressure: unpressured responses stay byte-identical
  // to pre-adaptive servers, and clients restore their granted window on
  // the first unstamped response.
  if (dynamic < fullWindow()) response->advertisedWindow = dynamic;
}

NegotiateResult executeNegotiate(qos::ShardedArbitrator& arbitrator,
                                 NegotiateRequest& payload,
                                 std::uint64_t jobId,
                                 std::uint64_t arrivalSeq,
                                 std::vector<qos::QualityMove>* moves) {
  // Wire clients are not clock-synchronized with the arbitrator; a release
  // behind the (monotone) negotiation clock means "now".
  Time effectiveRelease = payload.release;
  auto decision = arbitrator.submit(jobId, payload.spec, payload.release,
                                    &effectiveRelease, moves);
  NegotiateResult result;
  result.admitted = decision.admitted;
  result.jobId = jobId;
  result.arrivalSeq = arrivalSeq;
  result.release = effectiveRelease;
  result.chainsConsidered = decision.chainsConsidered;
  result.chainsSchedulable = decision.chainsSchedulable;
  if (decision.admitted) {
    result.chainIndex = decision.schedule.chainIndex;
    result.quality = decision.quality;
    result.placements = std::move(decision.schedule.placements);
    result.bindings =
        std::move(payload.spec.chains[decision.schedule.chainIndex].bindings);
  }
  return result;
}

Response NegotiationServer::execute(
    Request& request, std::uint64_t arrivalSeq,
    const std::optional<std::uint64_t>& presetJobId,
    std::vector<qos::QualityMove>* moves) {
  Response response;
  response.ok = true;
  switch (request.command) {
    case Command::Negotiate: {
      auto& payload = std::get<NegotiateRequest>(request.payload);
      // The request ends with this command (the wire trace encoded it at
      // stamp time), so its decoded bindings may be moved out.
      response.result = executeNegotiate(arbitrator_, payload,
                                         presetJobId.value(), arrivalSeq,
                                         moves);
      return response;
    }
    case Command::Cancel: {
      const auto& payload = std::get<CancelRequest>(request.payload);
      CancelResult result;
      result.freedTicks = arbitrator_.cancel(payload.jobId, moves);
      if (config_.reshapePolicy != nullptr) {
        std::lock_guard<std::mutex> originLock(originMu_);
        originByJob_.erase(payload.jobId);
      }
      response.result = result;
      return response;
    }
    case Command::Resize: {
      const auto& payload = std::get<ResizeRequest>(request.payload);
      if (payload.processors <= 0) {
        return makeError(request.id, "bad_request",
                         "RESIZE requires processors >= 1");
      }
      if (payload.processors < config_.shards) {
        return makeError(request.id, "bad_request",
                         "RESIZE requires at least one processor per shard");
      }
      const Time when = std::max(payload.when, arbitrator_.clock());
      const auto report = arbitrator_.resize(payload.processors, when);
      ResizeResult result;
      result.processorsBefore = report.processorsBefore;
      result.processorsAfter = report.processorsAfter;
      result.kept = report.kept;
      result.reconfigured = report.reconfigured;
      result.dropped = report.dropped;
      response.result = std::move(result);
      return response;
    }
    case Command::Stats: {
      StatsResult result;
      result.processors = arbitrator_.processors();
      result.clock = arbitrator_.clock();
      result.admitted = arbitrator_.admittedCount();
      result.rejected = arbitrator_.rejectedCount();
      result.commandsExecuted = commandsExecuted_.load() + 1;  // incl. this
      result.shards = config_.shards;
      response.result = result;
      return response;
    }
    case Command::Verify: {
      const auto report = arbitrator_.verify();
      VerifyResult result;
      result.ok = report.ok;
      result.firstViolation = report.firstViolation;
      result.violations = report.violations;
      response.result = std::move(result);
      return response;
    }
    case Command::Hello:
      break;  // answered on the event loop, never enqueued
  }
  return makeError(request.id, "internal", "unhandled command");
}

}  // namespace tprm::service
