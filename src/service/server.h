// tprmd: the QoS arbitrator as a long-lived negotiation service.
//
// Architecture (mirrors the paper's Section 3 split, across a real process
// boundary): per-application QoS agents connect over a Unix-domain or TCP
// loopback socket and exchange length-prefixed frames (JSON, or binary
// payloads when the connection's HELLO negotiated them); the system-wide
// arbitrator state is partitioned into K shards, each behind a command
// queue whose consumer claim serialises execution on that shard.
//
//   accept thread(s) ──► event-loop threads (epoll, nonblocking sockets)
//                          │  each loop owns its connections: incremental
//                          │  frame decoding (requests decoded from views
//                          │  of the input buffer), one output buffer
//                          ▼
//            under seqMutex_: route, then (arrivalSeq, jobId) drawn
//                          │  NEGOTIATE/CANCEL: shard jobId % K
//                          │  RESIZE/STATS/VERIFY: shard 0
//                          ▼
//        shard queue empty AND the loop wins (or already holds) its claim?
//             │ yes: run to completion              │ no: queue it
//             ▼                                     ▼
//   the loop executes the command          K command queues (backpressure:
//   itself, under the claim, and           a full queue answers a typed
//   encodes the response (and any          `busy` instead)
//   RESHAPED pushes for its own                     │
//   connections) as frames straight                 ▼
//   into the output buffers; the           K worker threads drain up to
//   claim is released after the            workerBatch commands per claim
//   read batch                             and encode each response
//             │                                     │
//             │                                     ▼
//             │                            encoded responses handed back
//             │                            to the owning loop (eventfd
//             │                            MPSC inbox), framed into the
//             │                            output buffer there
//             ▼                                     ▼
//          one write per connection per read batch / inbox batch; responses
//          correlated by requestId, in completion order
//
// Both paths run one function per command (execute, window stamp, counters,
// trace span, quality-move routing), so the path a command takes changes
// where and when it runs, never what it decides.  An idle shard costs no
// thread handoff at all; queues only fill under contention (another loop or
// the worker holds the claim, or earlier commands are still queued).  A
// worker that finds the claim taken parks until it is released.
//
// Every connection starts with HELLO (docs/wire_protocol.md), which grants
// it a window of in-flight requests; responses go out in completion order,
// correlated by requestId.  A first frame that decodes but is not HELLO (a
// client of the retired v1 protocol) is answered `unsupported_version` and
// the connection closes once that error has flushed; nothing is stamped.
//
// With shards == 1 this degenerates to the classic single-writer design:
// total arrivalSeq order, and (the replay tests pin this) decisions
// byte-identical to an in-process QoSArbitrator fed the same specs in
// arrivalSeq order.  With shards > 1 the order guarantee is per shard:
// commands routed to the same shard execute in arrivalSeq order, whichever
// thread runs them; cross-shard commands may interleave.  The inline path
// keeps this because it only runs when the shard's queue is empty and the
// claim is held, and the stamp happens under seqMutex_ like every push.
//
// Output ordering: before a loop executes a command inline it delivers the
// responses and pushes workers have already handed it, so every RESHAPED
// push of an earlier command precedes a later response on the connection.
//
// Failure semantics:
//  * Commands are atomic: once enqueued they execute to completion even if
//    the submitting client vanishes, so a mid-negotiation disconnect never
//    leaves partial arbitrator state (verify() stays clean) — the decision
//    simply has no reader.
//  * Malformed frames get an error response and the connection survives;
//    oversized or truncated frames desynchronize the stream, so the server
//    sends a best-effort error and closes that connection only.
//  * stop() drains: stop accepting, stop reading, execute everything
//    already queued, flush every pending response, then join.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qos/sharded.h"
#include "service/protocol.h"
#include "service/wiretrace.h"

namespace tprm::service {

/// Runs one NEGOTIATE against `arbitrator` under the stamped `jobId`.  The
/// arbitrator keeps only the job's shape, so on admission the granted
/// chain's bindings are moved out of `payload.spec` into the result, not
/// copied.  The server's execute path for NEGOTIATE; public only as a
/// test seam, so the allocation tests can count one wire admission without
/// the server's sockets and worker threads.  Everything else negotiates
/// through NegotiationServer.
[[nodiscard]] NegotiateResult executeNegotiate(
    qos::ShardedArbitrator& arbitrator, NegotiateRequest& payload,
    std::uint64_t jobId, std::uint64_t arrivalSeq,
    std::vector<qos::QualityMove>* moves);

struct ServerConfig {
  /// Machine size the arbitrator manages.
  int processors = 32;
  /// Admission heuristic configuration (Section 5.2 defaults).
  sched::GreedyOptions options = {};
  /// Arbitrator shards (>= 1, <= processors).  One shard reproduces the
  /// unsharded single-writer behavior exactly; more shards partition the
  /// machine and admit in parallel (qos/sharded.h).
  int shards = 1;
  /// Offer home-shard rejections to the emptiest other shard before finally
  /// rejecting (shards > 1 only).
  bool shardSpill = true;
  /// Admit jobs too wide for any single shard by gang-reserving width
  /// fragments across shards (two-phase trial reserve; shards > 1 only).
  bool shardGang = false;
  /// Period of the background capacity rebalancer; 0 disables it.  Only
  /// meaningful with shards > 1.
  int rebalanceIntervalMs = 0;
  /// Event-loop threads sharing the connections (>= 1).  Two comfortably
  /// saturate the shard workers on loopback; more helps only with many
  /// thousands of connections.
  int eventLoops = 2;
  /// Unix-domain listening path; empty = no Unix listener.
  std::string unixPath;
  /// TCP loopback listener; nullopt = none, 0 = ephemeral (see tcpPort()).
  std::optional<std::uint16_t> tcpPort;
  /// Per-frame payload cap for both directions.
  std::size_t maxFrameBytes = 1 << 20;
  /// Commands admitted but not yet executed, per shard queue.  At or above
  /// this threshold commands are refused with a `busy` error.
  std::size_t commandQueueCapacity = 256;
  /// Server-side cap on the per-connection in-flight window; HELLO
  /// grants min(requested, this).  Requests beyond the granted window get
  /// a `busy` error instead of stalling the loop.
  std::size_t maxInFlightPerConnection = 64;
  /// Commands a shard worker drains per consumer claim.
  std::size_t workerBatch = 32;
  /// Sessions beyond this are refused at accept with a silent close.
  std::size_t maxSessions = 128;
  /// How long a connection may sit idle between requests before the server
  /// closes it.
  std::chrono::milliseconds idleTimeout{30'000};
  /// Budget for flushing pending responses at shutdown (and, historically,
  /// for one blocking frame; the event loop itself never blocks on I/O).
  std::chrono::milliseconds ioTimeout{5'000};
  /// Attach the observability layer: a metrics registry over the whole
  /// negotiation stack plus a trace ring of recent commands.  Counters sit
  /// outside the decision path, so disabling only removes the bookkeeping —
  /// decisions are identical either way.
  bool observability = true;
  /// Recent command spans retained by the trace ring (>= 1).
  std::size_t traceCapacity = 256;
  /// Wire-trace recording: every decoded request frame that enters the
  /// command queues is appended (in arrivalSeq order — record happens under
  /// the sequence lock) to this file in the format of service/wiretrace.h.
  /// Empty = no recording.  start() fails if the file cannot be created.
  std::string recordPath;
  /// Elastic renegotiation policy (e.g. an elastic::Reshaper); nullptr
  /// keeps the paper's static negotiation model.  Owned by the embedder and
  /// must outlive the server.  When set, a rejected NEGOTIATE may demote
  /// admitted-but-not-started jobs to make room, and freed capacity
  /// promotes demoted jobs back up their ladders; every committed move is
  /// reported to the connection that negotiated the moved job as a
  /// RESHAPED push.
  const qos::ReshapePolicy* reshapePolicy = nullptr;
  /// Test-only seam: when set, called with the shard index right before
  /// each command executes, on whichever thread executes it (an event loop
  /// on the inline path, a shard worker otherwise) and with the shard's
  /// consumer claim held.  Blocking in it keeps the claim, so tests can make
  /// other commands for that shard queue by construction (busy, gauge
  /// high-water, shutdown-wedge regressions).  Production callers leave it
  /// unset.
  std::function<void(int shard)> executeSeamForTest;
};

/// Adaptive pipeline window (pure, exposed for tests): the in-flight
/// window the server honours and re-advertises given the deepest shard
/// queue.  Full window below a quarter of queue capacity, half up to half
/// capacity, an eighth (>= 1) beyond — backpressure arrives before the
/// queue is actually full, so pipelined clients throttle at the source.
[[nodiscard]] std::uint32_t adaptiveWindow(std::size_t queueDepth,
                                           std::size_t queueCapacity,
                                           std::uint32_t fullWindow);

/// Counters exposed for tests and the STATS command.  Snapshot semantics.
struct ServerCounters {
  std::uint64_t connectionsAccepted = 0;
  std::uint64_t connectionsRefused = 0;
  std::uint64_t framesMalformed = 0;
  std::uint64_t framesOversized = 0;
  std::uint64_t commandsExecuted = 0;
  /// Of commandsExecuted: run to completion on an event loop (the shard's
  /// queue was empty and its claim free) rather than by a shard worker.
  std::uint64_t commandsInline = 0;
  /// Consumer-claim attempts (loops and workers) that found the claim
  /// taken.  A worker parks after a miss, so this stays small.
  std::uint64_t claimMisses = 0;
  std::uint64_t disconnectsMidRequest = 0;
  /// Backpressure: requests refused with a `busy` error (window exceeded
  /// or shard queue full).  Never counts executed work.
  std::uint64_t busyRejections = 0;
  /// Successful HELLO handshakes.
  std::uint64_t helloHandshakes = 0;
  /// Elastic reshape events routed toward a client as RESHAPED pushes.
  std::uint64_t reshapeEventsDispatched = 0;
  /// Reshape events with no reachable owner (connection gone).
  std::uint64_t reshapeEventsDropped = 0;
  /// Jobs whose negotiating connection is remembered for push routing (a
  /// gauge; elastic servers only).
  std::uint64_t reshapeOrigins = 0;
};

class NegotiationServer {
 public:
  explicit NegotiationServer(ServerConfig config);
  ~NegotiationServer();

  NegotiationServer(const NegotiationServer&) = delete;
  NegotiationServer& operator=(const NegotiationServer&) = delete;

  /// Binds the configured listeners and starts the service threads.
  /// Returns false (with *error set) if no listener could be bound.
  [[nodiscard]] bool start(std::string* error);

  /// Graceful drain; idempotent.  Blocks until every loop and worker
  /// thread has exited.
  void stop();

  [[nodiscard]] bool running() const { return started_ && !stopped_; }

  /// Actual TCP port (after an ephemeral bind); 0 if no TCP listener.
  [[nodiscard]] std::uint16_t tcpPort() const { return boundTcpPort_; }
  [[nodiscard]] const std::string& unixPath() const {
    return config_.unixPath;
  }

  [[nodiscard]] ServerCounters counters() const;

  /// Full observability snapshot:
  ///   {"enabled": bool,
  ///    "server": {per-connection/frame counters, queue+session gauges},
  ///    "counters"/"gauges"/"histograms": registry snapshot,
  ///    "spans": recent trace spans (oldest first)}
  /// With observability disabled only {"enabled": false, "server": {...}} is
  /// emitted.  Safe to call from any thread while the server runs.
  [[nodiscard]] JsonValue observabilitySnapshot() const;

  /// Registry / trace access for embedders (bench, examples); nullptr when
  /// observability is disabled.
  [[nodiscard]] obs::MetricsRegistry* metricsRegistry() {
    return registry_.get();
  }
  [[nodiscard]] obs::TraceRing* traceRing() { return trace_.get(); }

  /// The sharded arbitrator behind the queues.  Read-only use by embedders
  /// (bench replay verification) — only safe while no commands are in
  /// flight (after stop(), or between requests in single-client tests).
  [[nodiscard]] const qos::ShardedArbitrator& arbitrator() const {
    return arbitrator_;
  }

 private:
  struct PendingCommand;
  struct Connection;
  struct Loop;
  struct ResponseMsg;
  struct ShardQueue;

  enum class EnqueueStatus {
    Inline,      // stamped, and the loop holds the shard's claim: the caller
                 // executes the command now (executeInline)
    Ok,          // queued; response will arrive via the loop inbox
    Busy,        // refused (queue full); nothing was committed
    Closed,      // server draining; nothing was committed
  };

  void acceptLoop(net::Listener* listener);
  void loopMain(Loop* loop);
  void workerLoop(int shard);
  /// Claims `queue`'s consumer token, drains up to workerBatch commands
  /// and executes them with the token still held (so per-shard commands
  /// execute in arrivalSeq order even when an event loop runs the next
  /// one inline), posts
  /// responses, then releases the token.  Returns false — with nothing
  /// drained — when the queue is empty or the token is taken.
  /// `batch`/`pushes`/`perLoop` are caller-owned scratch.
  bool drainAndExecute(ShardQueue* queue,
                       std::vector<std::shared_ptr<PendingCommand>>* batch,
                       std::vector<ResponseMsg>* pushes,
                       std::vector<std::vector<ResponseMsg>>* perLoop);

  /// The one per-command body of both execution paths; the caller holds
  /// shard `shard`'s consumer claim.  Runs the test seam, executes, stamps
  /// the adaptive window, counts, records the trace span, and routes each
  /// committed quality move to the loop of the connection that negotiated
  /// the moved job (appended to `pushes`, one push message per move).
  /// Returns the response; the inline path encodes it straight into the
  /// connection's output, a worker into the message it posts.
  Response runCommand(int shard, PendingCommand& command,
                      std::vector<ResponseMsg>* pushes);
  void rebalanceLoop();

  // --- Loop-thread helpers (each touches only `loop`-owned state). ---
  void processInbox(Loop* loop);
  /// Delivers the responses and pushes workers have posted to `loop` so
  /// far (not connections or shutdown phases); the connections
  /// they touch are flushed with the rest of the batch.
  void deliverPosted(Loop* loop);
  /// Routes one posted or inline message to its connection (or counts it
  /// orphaned); adds the connection to loop->touched.
  void deliverMsg(Loop* loop, ResponseMsg& msg);
  /// Runs a command the loop claimed in enqueue() and writes its response
  /// and same-loop pushes straight into the connections' output; pushes for
  /// other loops go through their inboxes.
  void executeInline(Loop* loop, Connection* conn, int shard,
                     PendingCommand& command);
  /// Releases the claims the loop took for inline execution, then flushes
  /// every connection the batch wrote to.
  void finishBatch(Loop* loop);
  void registerConnection(Loop* loop, net::Socket socket);
  void handleReadable(Loop* loop, Connection* conn);
  void processDecodedFrames(Loop* loop, Connection* conn);
  /// Decodes and acts on one frame; `payload` views the connection's
  /// frame decoder and dies with its next prepare().
  void handleFrame(Loop* loop, Connection* conn, std::string_view payload);
  /// Encodes `response` as a frame straight into the connection's output
  /// buffer; the caller flushes.
  void deliverResponse(Loop* loop, Connection* conn, const Response& response);
  /// Appends a response a worker already encoded as a frame to the
  /// connection's output buffer; the caller flushes.
  void deliverEncoded(Loop* loop, Connection* conn, std::string_view payload);
  /// Shared tail of both deliveries: a frame over the limit closes the
  /// connection.
  void frameRefused(Loop* loop, Connection* conn);
  void flushOut(Loop* loop, Connection* conn);
  void updateInterest(Loop* loop, Connection* conn);
  void closeConnection(Loop* loop, Connection* conn);
  void sweepIdle(Loop* loop);

  /// Routes a decoded command and stamps it (stampCommand).  When the
  /// target shard's queue is empty and `loop` holds or wins its consumer
  /// claim, returns Inline with the shard in *shard: the caller executes
  /// the command now.  Otherwise moves it into the shard's queue.  Never
  /// blocks: a full queue refuses with Busy.  On Busy/Closed nothing was
  /// committed — no sequence number, no job id, no trace record — and
  /// `command` is left intact.
  EnqueueStatus enqueue(Loop* loop, PendingCommand& command, int* shard);

  /// The stamping both paths share; caller holds seqMutex_.  Draws the
  /// arrival sequence (and, for NEGOTIATE, reserves the job id), remembers
  /// a negotiated job's connection for reshape routing, appends the
  /// --record-out record, and stamps enqueuedNs when tracing.
  void stampCommand(PendingCommand* command);

  /// Runs one command.  A NEGOTIATE's spec is moved out of `request`
  /// into the arbitrator, so the request is spent afterwards.
  Response execute(Request& request, std::uint64_t arrivalSeq,
                   const std::optional<std::uint64_t>& presetJobId,
                   std::vector<qos::QualityMove>* moves);

  /// The HELLO grant cap: maxInFlightPerConnection clamped to [1, 2^32).
  [[nodiscard]] std::uint32_t fullWindow() const;

  /// Current adaptive window: adaptiveWindow() over the deepest shard
  /// queue.  Cheap (K relaxed atomic loads); called per frame and per
  /// worker response.
  [[nodiscard]] std::uint32_t dynamicWindowNow() const;

  /// Stamps the adaptive-window re-advertisement on a response when the
  /// server is under pressure (no-op at full window, so unpressured
  /// responses are byte-identical to older servers').
  void stampWindow(Response* response) const;

  /// Records one finished command into the histograms and the trace ring.
  /// Called on the executing thread (loop or worker); requires
  /// observability on (both sinks are thread-safe).
  void recordSpan(const PendingCommand& command, const Response& response,
                  std::int64_t startNs);

  ServerConfig config_;
  net::FrameLimits frameLimits_;

  net::Listener unixListener_;
  net::Listener tcpListener_;
  std::uint16_t boundTcpPort_ = 0;

  std::vector<std::thread> acceptThreads_;
  std::thread rebalanceThread_;

  /// Event loops; connections are handed out round-robin at accept.
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> nextLoop_{0};
  std::atomic<std::uint64_t> nextConnId_{1};
  std::atomic<std::size_t> activeSessions_{0};
  std::atomic<int> drainAcks_{0};

  /// Guards the (arrivalSeq, jobId) draw and the push or claim that
  /// follows, so commands enter their shard in arrivalSeq order.  Lock
  /// order: seqMutex_, then the target queue's park mutex (a push takes it
  /// only to wake a parked worker).
  std::mutex seqMutex_;
  std::uint64_t nextArrivalSeq_ = 0;  // guarded by seqMutex_
  /// Wire-trace recording (config_.recordPath).  Written under seqMutex_ so
  /// the file order is exactly arrivalSeq order; lastRecordNs_ carries the
  /// monotonic timestamp of the previous record for the delta encoding.
  WireTraceWriter traceWriter_;         // guarded by seqMutex_ after start()
  std::int64_t lastRecordNs_ = 0;       // guarded by seqMutex_
  /// Set (under seqMutex_) by stop(); read by waiters on any queue.
  std::atomic<bool> queueClosed_{false};

  /// One command queue + worker thread per shard.
  std::vector<std::unique_ptr<ShardQueue>> queues_;

  /// jobId -> (loopIndex, connId) of the connection that negotiated it;
  /// reshape events for a job are routed to its negotiating connection.
  /// Written at enqueue, read by workers, pruned on CANCEL, on a rejected
  /// NEGOTIATE and when a dispatch finds the connection gone.
  mutable std::mutex originMu_;
  std::unordered_map<std::uint64_t, std::pair<int, std::uint64_t>>
      originByJob_;

  qos::ShardedArbitrator arbitrator_;

  // Observability (all null when config_.observability is false).  The
  // registry owns the metric instances; the raw pointers below are cached
  // lookups with registry lifetime.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  /// One bundle per shard: prefix "arbitrator" when shards == 1 (exact
  /// unsharded names), "arbitrator.shard<k>" otherwise.
  std::vector<std::unique_ptr<obs::NegotiationMetrics>> negotiation_;
  std::unique_ptr<obs::ShardedMetrics> shardedMetrics_;  // shards > 1 only
  std::unique_ptr<obs::TraceRing> trace_;
  obs::Gauge* sessionsActive_ = nullptr;
  obs::HistogramMetric* queueWaitUs_ = nullptr;
  obs::HistogramMetric* executeUs_ = nullptr;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  // Counters (atomics: bumped from loop/accept/worker threads, read
  // anywhere).
  std::atomic<std::uint64_t> connectionsAccepted_{0};
  std::atomic<std::uint64_t> connectionsRefused_{0};
  std::atomic<std::uint64_t> framesMalformed_{0};
  std::atomic<std::uint64_t> framesOversized_{0};
  std::atomic<std::uint64_t> commandsExecuted_{0};
  std::atomic<std::uint64_t> commandsInline_{0};
  std::atomic<std::uint64_t> disconnectsMidRequest_{0};
  std::atomic<std::uint64_t> busyRejections_{0};
  std::atomic<std::uint64_t> helloHandshakes_{0};
  std::atomic<std::uint64_t> reshapeEventsDispatched_{0};
  std::atomic<std::uint64_t> reshapeEventsDropped_{0};
};

}  // namespace tprm::service
