// tprmd — the TPRM QoS arbitrator as a daemon.
//
//   tprmd --unix=/tmp/tprmd.sock            # Unix-domain endpoint
//   tprmd --tcp-port=7411                   # TCP loopback endpoint
//   tprmd --procs=64 --unix=... --tcp-port=0
//   tprmd --procs=64 --shards=4             # sharded parallel admission
//   tprmd --event-loops=4 --max-inflight=64 # I/O and pipelining tuning
//   tprmd --elastic=min-quality-loss        # arbitrator-initiated reshaping
//
// Event loop:
//   Connections are served by --event-loops nonblocking epoll threads
//   (default 2); --max-inflight caps the per-connection window a client
//   can negotiate via HELLO, and --worker-batch sets how many queued
//   commands a shard worker drains per wakeup.  Every connection must open
//   with HELLO (docs/wire_protocol.md): a first frame of the retired v1
//   protocol is answered `unsupported_version` and the connection closed.
//
// Sharding:
//   --shards=K partitions the machine across K arbitrator shards with
//   parallel admission (K=1, the default, is the classic single-writer
//   arbitrator with identical decisions).  --no-spill keeps rejected jobs
//   on their home shard; --gang admits jobs too wide for any single shard
//   by reserving width fragments across shards (two-phase trial reserve);
//   --rebalance-interval-ms=N runs the capacity rebalancer every N ms
//   (0, the default, disables it).
//
// Elastic mode:
//   --elastic[=POLICY] turns rejections into quality trades: on admission
//   failure the arbitrator demotes admitted-but-not-yet-started malleable
//   jobs down their own offered chains to make room, and promotes them
//   back when load drops.  POLICY is the victim order — min-quality-loss
//   (default), most-recent-first, or proportional-share.  Each move is
//   pushed to the connection that negotiated the moved job as a RESHAPED
//   frame.
//
// Recording:
//   --record-out=FILE appends every decoded request frame (arrival order,
//   with inter-arrival timing) to a binary wire trace; tools/tprm_replay
//   plays it back and checks decisions (see docs/trace_format.md).
//
// Observability:
//   --metrics-out=FILE writes one compact-JSON observability snapshot per
//   --metrics-interval-ms (default 1000) — JSON-lines, ready for jq/tail.
//   SIGUSR1 dumps a pretty snapshot to stderr on demand.
//   --no-metrics turns the layer off entirely.
//
// Runs until SIGINT/SIGTERM, then drains gracefully: in-flight
// negotiations complete and are answered before the process exits.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/flags.h"
#include "common/log.h"
#include "elastic/reshaper.h"
#include "service/server.h"

namespace {

std::atomic<bool> gShutdown{false};
std::atomic<bool> gDumpMetrics{false};

void onSignal(int) { gShutdown.store(true); }
void onDumpSignal(int) { gDumpMetrics.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace tprm;
  const Flags flags(argc, argv);
  const auto unknown = flags.unknownAgainst(
      {"procs", "unix", "tcp-port", "max-frame-kb", "queue-cap",
       "max-sessions", "idle-timeout-ms", "io-timeout-ms", "verbose",
       "metrics-out", "metrics-interval-ms", "trace-cap", "no-metrics",
       "shards", "no-spill", "gang", "rebalance-interval-ms", "record-out",
       "event-loops", "max-inflight", "worker-batch", "elastic"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "tprmd: unknown flag --%s\n", unknown.front().c_str());
    return 2;
  }
  if (flags.getBool("verbose", false)) setLogLevel(LogLevel::Info);

  service::ServerConfig config;
  config.processors = static_cast<int>(flags.getInt("procs", 32));
  config.shards = static_cast<int>(flags.getInt("shards", 1));
  if (config.shards < 1 || config.shards > config.processors) {
    std::fprintf(stderr,
                 "tprmd: --shards must be in [1, --procs] (got %d of %d)\n",
                 config.shards, config.processors);
    return 2;
  }
  config.eventLoops = static_cast<int>(flags.getInt("event-loops", 2));
  if (config.eventLoops < 1) {
    std::fprintf(stderr, "tprmd: --event-loops must be >= 1 (got %d)\n",
                 config.eventLoops);
    return 2;
  }
  config.maxInFlightPerConnection =
      static_cast<std::size_t>(flags.getInt("max-inflight", 64));
  config.workerBatch =
      static_cast<std::size_t>(flags.getInt("worker-batch", 32));
  config.shardSpill = !flags.getBool("no-spill", false);
  config.shardGang = flags.getBool("gang", false);
  if (config.shardGang && config.shards < 2) {
    std::fprintf(stderr, "tprmd: --gang requires --shards >= 2\n");
    return 2;
  }
  config.rebalanceIntervalMs =
      static_cast<int>(flags.getInt("rebalance-interval-ms", 0));
  config.unixPath = flags.getString("unix", "");
  if (flags.has("tcp-port")) {
    config.tcpPort = static_cast<std::uint16_t>(flags.getInt("tcp-port", 0));
  }
  if (config.unixPath.empty() && !config.tcpPort.has_value()) {
    config.unixPath = "/tmp/tprmd.sock";
  }
  config.maxFrameBytes =
      static_cast<std::size_t>(flags.getInt("max-frame-kb", 1024)) * 1024;
  config.commandQueueCapacity =
      static_cast<std::size_t>(flags.getInt("queue-cap", 256));
  config.maxSessions =
      static_cast<std::size_t>(flags.getInt("max-sessions", 128));
  config.idleTimeout =
      std::chrono::milliseconds(flags.getInt("idle-timeout-ms", 30'000));
  config.ioTimeout =
      std::chrono::milliseconds(flags.getInt("io-timeout-ms", 5'000));
  // The Reshaper outlives the server (ServerConfig holds a raw pointer); one
  // instance serves every shard — its orders are pure functions.
  std::optional<elastic::Reshaper> reshaper;
  if (flags.has("elastic")) {
    const std::string policyName = flags.getString("elastic", "");
    auto policy = elastic::VictimPolicy::MinQualityLoss;
    if (policyName != "true") {  // bare --elastic parses as "true"
      const auto parsed = elastic::victimPolicyFromName(policyName);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "tprmd: --elastic=%s is not a policy (want "
                     "min-quality-loss | most-recent-first | "
                     "proportional-share)\n",
                     policyName.c_str());
        return 2;
      }
      policy = *parsed;
    }
    reshaper.emplace(policy);
    config.reshapePolicy = &*reshaper;
  }
  config.observability = !flags.getBool("no-metrics", false);
  config.traceCapacity =
      static_cast<std::size_t>(flags.getInt("trace-cap", 256));
  config.recordPath = flags.getString("record-out", "");

  const std::string metricsPath = flags.getString("metrics-out", "");
  const auto metricsInterval =
      std::chrono::milliseconds(flags.getInt("metrics-interval-ms", 1'000));
  if (!metricsPath.empty() && !config.observability) {
    std::fprintf(stderr,
                 "tprmd: --metrics-out requires metrics (drop --no-metrics)\n");
    return 2;
  }

  // Install handlers before the server exists: a SIGUSR1 (or Ctrl-C) that
  // lands mid-startup must not take the whole process down with the
  // default disposition.
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGUSR1, onDumpSignal);
  std::signal(SIGPIPE, SIG_IGN);

  service::NegotiationServer server(config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "tprmd: failed to start: %s\n", error.c_str());
    return 1;
  }
  FILE* metricsOut = nullptr;
  if (!metricsPath.empty()) {
    metricsOut = std::fopen(metricsPath.c_str(), "w");
    if (metricsOut == nullptr) {
      std::fprintf(stderr, "tprmd: cannot open --metrics-out file %s\n",
                   metricsPath.c_str());
      server.stop();
      return 1;
    }
  }
  if (!server.unixPath().empty()) {
    std::printf("tprmd: listening on unix:%s\n", server.unixPath().c_str());
  }
  if (server.tcpPort() != 0) {
    std::printf("tprmd: listening on tcp:127.0.0.1:%u\n",
                static_cast<unsigned>(server.tcpPort()));
  }
  if (config.shards > 1) {
    std::printf("tprmd: managing %d processors across %d shards%s\n",
                config.processors, config.shards,
                config.shardGang ? " (gang admission on)" : "");
  } else {
    std::printf("tprmd: managing %d processors\n", config.processors);
  }
  if (reshaper.has_value()) {
    std::printf("tprmd: elastic reshaping on (%s)\n",
                elastic::toString(reshaper->policy()).c_str());
  }
  std::fflush(stdout);

  auto nextSnapshot = std::chrono::steady_clock::now() + metricsInterval;
  while (!gShutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (gDumpMetrics.exchange(false)) {
      std::fprintf(stderr, "%s\n",
                   server.observabilitySnapshot().dump().c_str());
      std::fflush(stderr);
    }
    if (metricsOut != nullptr &&
        std::chrono::steady_clock::now() >= nextSnapshot) {
      std::fprintf(metricsOut, "%s\n",
                   server.observabilitySnapshot().dumpCompact().c_str());
      std::fflush(metricsOut);
      nextSnapshot += metricsInterval;
    }
  }

  std::printf("tprmd: draining...\n");
  server.stop();
  if (metricsOut != nullptr) {
    // Final post-drain snapshot so the file ends with the complete totals.
    std::fprintf(metricsOut, "%s\n",
                 server.observabilitySnapshot().dumpCompact().c_str());
    std::fclose(metricsOut);
  }
  const auto counters = server.counters();
  std::printf("tprmd: served %llu commands over %llu connections; bye\n",
              static_cast<unsigned long long>(counters.commandsExecuted),
              static_cast<unsigned long long>(counters.connectionsAccepted));
  return 0;
}
