// Loopback integration tests for the negotiation service: a real
// NegotiationServer on a private Unix socket (or TCP loopback), real
// client connections, real frames.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "qos/qos.h"
#include "claim_holder.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/wiretrace.h"
#include "taskmodel/spec_io.h"

namespace tprm::service {
namespace {

using namespace std::chrono_literals;

int gSocketCounter = 0;

std::string freshSocketPath() {
  return "/tmp/tprm-svc-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(gSocketCounter++) + ".sock";
}

ServerConfig unixConfig(int processors) {
  ServerConfig config;
  config.processors = processors;
  config.unixPath = freshSocketPath();
  return config;
}

ClientConfig clientFor(const NegotiationServer& server) {
  ClientConfig config;
  config.unixPath = server.unixPath();
  return config;
}

/// A small tunable job whose shape depends on `salt`, so concurrent
/// submissions contend in varied ways.  All chains fit an 8-processor
/// machine in isolation; under load some submissions get rejected, which is
/// exactly what the equivalence test wants to reproduce.
task::TunableJobSpec makeSpec(int salt) {
  task::TunableJobSpec spec;
  spec.name = "job-" + std::to_string(salt);
  const int wide = 2 + (salt % 4);             // 2..5 processors
  const double dur = 10.0 + (salt % 7) * 5.0;  // 10..40 units
  task::Chain eager;
  eager.name = "eager";
  eager.bindings = {{"level", salt % 3}};
  eager.tasks = {
      task::TaskSpec::rigid("burst", wide, ticksFromUnits(dur),
                            ticksFromUnits(60.0)),
  };
  task::Chain lean;
  lean.name = "lean";
  lean.bindings = {{"level", 9}};
  lean.tasks = {
      task::TaskSpec::rigid("burst", 1, ticksFromUnits(dur * 1.5),
                            ticksFromUnits(90.0), /*quality=*/0.6),
  };
  spec.chains = {eager, lean};
  return spec;
}

TEST(Service, NegotiateCancelStatsVerifyOverUnixSocket) {
  NegotiationServer server(unixConfig(16));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  QoSAgentClient client(clientFor(server));
  const auto decision = client.negotiate(makeSpec(1), /*release=*/0);
  ASSERT_TRUE(decision.ok()) << decision.error.message;
  EXPECT_TRUE(decision->admitted);
  EXPECT_EQ(decision->chainIndex, 0u);  // machine is empty: best chain wins
  EXPECT_FALSE(decision->placements.empty());
  EXPECT_EQ(decision->bindings.at("level"), 1);

  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->processors, 16);
  EXPECT_EQ(stats->admitted, 1u);

  const auto cancelled = client.cancel(decision->jobId);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_GT(cancelled->freedTicks, 0);

  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

TEST(Service, NegotiateOverTcpLoopback) {
  ServerConfig config;
  config.processors = 8;
  config.tcpPort = 0;  // ephemeral
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.tcpPort(), 0);

  ClientConfig clientConfig;
  clientConfig.tcpPort = server.tcpPort();
  QoSAgentClient client(clientConfig);
  const auto decision = client.negotiate(makeSpec(3), 0);
  ASSERT_TRUE(decision.ok()) << decision.error.message;
  EXPECT_TRUE(decision->admitted);
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok);
  server.stop();
}

TEST(Service, ResizeAcrossTheWire) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  QoSAgentClient client(clientFor(server));
  ASSERT_TRUE(client.negotiate(makeSpec(2), 0).ok());

  const auto grown = client.resize(12, /*when=*/0);
  ASSERT_TRUE(grown.ok()) << grown.error.message;
  EXPECT_EQ(grown->processorsBefore, 8);
  EXPECT_EQ(grown->processorsAfter, 12);
  EXPECT_TRUE(grown->dropped.empty());  // growing never drops

  const auto bad = client.resize(0, 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error.status, ClientStatus::ServerError);
  EXPECT_EQ(bad.error.code, "bad_request");

  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// One configuration of the concurrent replay test below.
struct ConcurrentRun {
  int shards;
  int eventLoops;
};

void runConcurrentClientsAgainstReplay(const ConcurrentRun& run) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  const int processors = 8 * (run.shards == 1 ? 1 : 2);

  auto config = unixConfig(processors);
  config.shards = run.shards;
  config.shardSpill = false;  // independent shards: per-shard replay is exact
  config.eventLoops = run.eventLoops;
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto& depth = server.metricsRegistry()->gauge(
      run.shards == 1 ? "server.queue_depth" : "server.queue_depth.shard0");

  struct Observed {
    task::TunableJobSpec spec;
    NegotiateResult result;
  };
  // The first negotiation (job 0, shard 0) runs inline on loop 0 and keeps
  // shard 0's claim until some client's command has queued behind it, so
  // every run mixes both execution paths.
  const auto firstSpec = makeSpec(kClients * kRequestsPerClient);
  Request first;
  first.command = Command::Negotiate;
  first.id = 1;
  first.payload = NegotiateRequest{firstSpec, 0};
  ASSERT_TRUE(holder.hold(server, first));

  std::vector<std::vector<Observed>> perClient(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QoSAgentClient client(clientFor(server));
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto spec = makeSpec(c * kRequestsPerClient + r);
        const auto decision = client.negotiate(spec, /*release=*/0);
        ASSERT_TRUE(decision.ok()) << decision.error.message;
        perClient[static_cast<std::size_t>(c)].push_back({spec, *decision});
      }
    });
  }
  for (int i = 0; i < 2500 && depth.max() < 1; ++i) {
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_GE(depth.max(), 1);
  holder.release();
  for (auto& thread : threads) thread.join();
  const auto held = holder.response();
  ASSERT_TRUE(held.ok()) << held.error;
  ASSERT_TRUE(held.response->ok);
  perClient.push_back(
      {{firstSpec, std::get<NegotiateResult>(held.response->result)}});

  // Flatten and order by the server-stamped arrival sequence.
  std::vector<const Observed*> byArrival;
  for (const auto& observations : perClient) {
    for (const auto& observed : observations) {
      byArrival.push_back(&observed);
    }
  }
  ASSERT_EQ(byArrival.size(),
            static_cast<std::size_t>(kClients * kRequestsPerClient + 1));
  std::sort(byArrival.begin(), byArrival.end(),
            [](const Observed* a, const Observed* b) {
              return a->result.arrivalSeq < b->result.arrivalSeq;
            });
  // Sequence numbers are dense: one per executed command, no gaps.
  for (std::size_t i = 0; i < byArrival.size(); ++i) {
    EXPECT_EQ(byArrival[i]->result.arrivalSeq, i);
  }

  // Replay into a fresh in-process arbitrator in that order: every decision
  // must match exactly (admission, chain, quality, placements, job ids).
  if (run.shards == 1) {
    qos::QoSArbitrator replay(processors);
    for (const auto* observed : byArrival) {
      const auto decision =
          replay.submit(observed->spec, observed->result.release);
      ASSERT_EQ(replay.lastJobId().value(), observed->result.jobId);
      ASSERT_EQ(decision.admitted, observed->result.admitted)
          << "arrivalSeq " << observed->result.arrivalSeq;
      if (decision.admitted) {
        EXPECT_EQ(decision.schedule.chainIndex, observed->result.chainIndex);
        EXPECT_EQ(decision.quality, observed->result.quality);
        EXPECT_EQ(decision.schedule.placements, observed->result.placements);
      }
    }
    const auto replayReport = replay.verify();
    EXPECT_TRUE(replayReport.ok) << replayReport.firstViolation;
  } else {
    qos::ShardedOptions options;
    options.shards = run.shards;
    options.spill = false;
    qos::ShardedArbitrator replay(processors, options);
    for (const auto* observed : byArrival) {
      const std::uint64_t jobId = replay.reserveJobId();
      ASSERT_EQ(jobId, observed->result.jobId);
      const auto decision =
          replay.submit(jobId, observed->spec, observed->result.release);
      ASSERT_EQ(decision.admitted, observed->result.admitted)
          << "arrivalSeq " << observed->result.arrivalSeq;
      if (decision.admitted) {
        EXPECT_EQ(decision.schedule.chainIndex, observed->result.chainIndex);
        EXPECT_EQ(decision.quality, observed->result.quality);
        EXPECT_EQ(decision.schedule.placements, observed->result.placements);
      }
    }
    const auto replayReport = replay.verify();
    EXPECT_TRUE(replayReport.ok) << replayReport.firstViolation;
  }

  // Both paths ran: the held negotiation inline, at least one command
  // queued behind it.
  const auto counters = server.counters();
  EXPECT_GT(counters.commandsInline, 0u);
  EXPECT_LT(counters.commandsInline, counters.commandsExecuted);

  // Under 8-way contention some submissions must have been rejected, or
  // the test exercised nothing.
  QoSAgentClient client(clientFor(server));
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->admitted, 0u);
  EXPECT_GT(stats->rejected, 0u);
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// The tentpole acceptance test: N concurrent clients against the service
// produce exactly the decisions of the in-process arbitrator replayed in
// the server's stamped arrival order — with one shard, and with four
// shards over two and four event loops, where commands run inline on the
// loops when their shard is idle and queue otherwise.
TEST(Service, ConcurrentClientsMatchInProcessReplayInArrivalOrder) {
  const ConcurrentRun runs[] = {{1, 2}, {4, 2}, {4, 4}};
  for (const auto& run : runs) {
    SCOPED_TRACE("shards=" + std::to_string(run.shards) +
                 " loops=" + std::to_string(run.eventLoops));
    runConcurrentClientsAgainstReplay(run);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The pipelined (wire v2) twin of the equivalence test above: 8 clients,
// each with a window of in-flight negotiations on one connection, must
// still produce exactly the in-process arbitrator's decisions when replayed
// in stamped arrival order.  Run under TSan this also pins the event-loop /
// worker / client-reader handoffs as race-free.
TEST(Service, PipelinedClientsMatchInProcessReplayInArrivalOrder) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  const int processors = 8;

  NegotiationServer server(unixConfig(processors));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  struct Observed {
    task::TunableJobSpec spec;
    NegotiateResult result;
  };
  std::vector<std::vector<Observed>> perClient(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PipelinedClient client(clientFor(server), /*window=*/8);
      auto connectError = client.connect();
      ASSERT_FALSE(connectError.has_value()) << connectError->message;
      ASSERT_GE(client.grantedWindow(), 1u);
      std::vector<std::pair<task::TunableJobSpec,
                            PipelinedClient::ResponseFuture>>
          submitted;
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto spec = makeSpec(c * kRequestsPerClient + r);
        submitted.emplace_back(spec, client.negotiateAsync(spec, 0));
      }
      for (auto& [spec, future] : submitted) {
        auto decision = extractResult<NegotiateResult>(future.get());
        ASSERT_TRUE(decision.ok()) << decision.error.message;
        perClient[static_cast<std::size_t>(c)].push_back(
            {spec, *decision});
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<const Observed*> byArrival;
  for (const auto& observations : perClient) {
    for (const auto& observed : observations) byArrival.push_back(&observed);
  }
  ASSERT_EQ(byArrival.size(),
            static_cast<std::size_t>(kClients * kRequestsPerClient));
  std::sort(byArrival.begin(), byArrival.end(),
            [](const Observed* a, const Observed* b) {
              return a->result.arrivalSeq < b->result.arrivalSeq;
            });
  // busy never executes and never draws a sequence number, so even under
  // pipelining the executed sequence stays dense.
  for (std::size_t i = 0; i < byArrival.size(); ++i) {
    EXPECT_EQ(byArrival[i]->result.arrivalSeq, i);
  }

  qos::QoSArbitrator replay(processors);
  for (const auto* observed : byArrival) {
    const auto decision =
        replay.submit(observed->spec, observed->result.release);
    ASSERT_EQ(replay.lastJobId().value(), observed->result.jobId);
    ASSERT_EQ(decision.admitted, observed->result.admitted)
        << "arrivalSeq " << observed->result.arrivalSeq;
    if (decision.admitted) {
      EXPECT_EQ(decision.schedule.chainIndex, observed->result.chainIndex);
      EXPECT_EQ(decision.quality, observed->result.quality);
      EXPECT_EQ(decision.schedule.placements, observed->result.placements);
    }
  }
  const auto replayReport = replay.verify();
  EXPECT_TRUE(replayReport.ok) << replayReport.firstViolation;

  EXPECT_EQ(server.counters().helloHandshakes,
            static_cast<std::uint64_t>(kClients));
  QoSAgentClient client(clientFor(server));
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// One raw v2 connection against a sharded server: cheap STATS commands
// (shard 0) interleaved with expensive NEGOTIATEs (home shards) must come
// back correlated by requestId — and genuinely out of submission order when
// a NEGOTIATE has to queue.  A holder on the other event loop keeps shard
// 1's claim through the first two pairs, so pair 1's NEGOTIATE (job 1, home
// shard 1) queues while its STATS runs inline: the overtake is certain.
TEST(Service, V2ResponsesInterleaveOutOfOrderOnOneConnection) {
  ServerConfig config = unixConfig(16);
  config.shards = 4;
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Request cancel;  // job 1001 never exists; 1001 % 4 == 1
  cancel.command = Command::Cancel;
  cancel.id = 1;
  cancel.payload = CancelRequest{1001};
  ASSERT_TRUE(holder.hold(server, cancel));
  ASSERT_EQ(holder.shard(), 1);

  net::Socket socket;
  std::uint32_t granted = 0;
  ASSERT_TRUE(testutil::helloConnection(server, &socket, 64, &granted));
  EXPECT_EQ(granted, 64u);
  const net::FrameLimits limits;

  // One pair at a time: a NEGOTIATE carrying dozens of chains (deliberately
  // expensive to schedule, routed to its home shard) followed in the same
  // write by an O(1) STATS (shard 0).  When the NEGOTIATE's shard is busy
  // it queues, and the cheap command's response overtakes — exactly what
  // requestId correlation exists for.  Waiting for both responses before
  // the next pair keeps each pair independent of the others.
  constexpr int kPairs = 10;
  std::size_t inversions = 0;
  for (int i = 0; i < kPairs; ++i) {
    task::TunableJobSpec heavy = makeSpec(i);
    for (int extra = 0; extra < 48; ++extra) {
      heavy.chains.push_back(makeSpec(i * 31 + extra)
                                 .chains[static_cast<std::size_t>(extra % 2)]);
    }
    Request negotiate;
    negotiate.command = Command::Negotiate;
    negotiate.id = 100 + static_cast<std::uint64_t>(2 * i);
    negotiate.payload = NegotiateRequest{std::move(heavy), 0};
    Request stats;
    stats.command = Command::Stats;
    stats.id = 101 + static_cast<std::uint64_t>(2 * i);
    std::string wire;
    ASSERT_TRUE(net::appendFrame(wire, encodeRequest(negotiate), limits).ok());
    ASSERT_TRUE(net::appendFrame(wire, encodeRequest(stats), limits).ok());
    ASSERT_TRUE(
        socket.writeAll(wire.data(), wire.size(), net::Deadline::after(5s))
            .ok());
    std::vector<std::uint64_t> order;
    for (int r = 0; r < 2; ++r) {
      auto frame = net::readFrame(socket, limits, net::Deadline::after(5s),
                                  net::Deadline::after(5s));
      ASSERT_TRUE(frame.ok()) << frame.message;
      auto decoded = decodeResponse(frame.payload);
      ASSERT_TRUE(decoded.ok()) << decoded.error;
      ASSERT_TRUE(decoded.response->ok)
          << decoded.response->error->code << ": "
          << decoded.response->error->message;
      order.push_back(decoded.response->id);
      // Pair 1's NEGOTIATE cannot finish while shard 1's claim is held.
      if (i == 1) holder.release();
    }
    // Both responses, each exactly once, correlated by id.
    ASSERT_NE(order[0], order[1]);
    for (const auto id : order) {
      ASSERT_TRUE(id == negotiate.id || id == stats.id) << id;
    }
    if (order[0] == stats.id) ++inversions;
  }
  // Completion-order delivery lets the cheap command win whenever the heavy
  // one queued (pair 1 at least).
  EXPECT_GT(inversions, 0u);

  QoSAgentClient client(clientFor(server));
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// A granted window of 1 plus a burst of frames in one write: everything
// beyond the window gets the typed busy error, nothing desyncs, and the
// connection keeps working afterwards.
TEST(Service, WindowExceededGetsTypedBusyAndConnectionSurvives) {
  ServerConfig config = unixConfig(8);
  // Shard 0's claim stays on the holder's loop, so the in-window STATS
  // queues (and keeps its slot) instead of running inline.
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(1)));

  net::Socket socket;
  // A deliberately tiny window.
  ASSERT_TRUE(testutil::helloConnection(server, &socket, /*window=*/1));
  const net::FrameLimits limits;

  // 20 STATS frames in a single write: the in-window head queues behind
  // the held claim, so every later frame must bounce busy.
  constexpr int kBurst = 20;
  std::string wire;
  for (int i = 0; i < kBurst; ++i) {
    Request stats;
    stats.command = Command::Stats;
    stats.id = 100 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(net::appendFrame(wire, encodeRequest(stats), limits).ok());
  }
  ASSERT_TRUE(
      socket.writeAll(wire.data(), wire.size(), net::Deadline::after(1s))
          .ok());

  int ok = 0;
  int busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto frame = net::readFrame(socket, limits, net::Deadline::after(5s),
                                net::Deadline::after(5s));
    ASSERT_TRUE(frame.ok()) << frame.message;
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    if (decoded.response->ok) {
      ++ok;
    } else {
      ASSERT_EQ(decoded.response->error->code, "busy");
      ++busy;
      holder.release();
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(busy, 1);
  EXPECT_EQ(ok + busy, kBurst);
  EXPECT_EQ(server.counters().busyRejections,
            static_cast<std::uint64_t>(busy));

  // busy is retriable: the same connection still serves requests.
  Request again;
  again.command = Command::Stats;
  again.id = 999;
  ASSERT_TRUE(net::writeFrame(socket, encodeRequest(again), limits,
                              net::Deadline::after(1s))
                  .ok());
  auto frame = net::readFrame(socket, limits, net::Deadline::after(5s),
                              net::Deadline::after(5s));
  ASSERT_TRUE(frame.ok());
  auto decoded = decodeResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.response->ok);
  EXPECT_EQ(decoded.response->id, 999u);
  server.stop();
}

// Tiny shard queue + pipelined burst: queue-full busy rejections never
// execute, never draw a sequence number, and the executed subset still
// replays to identical decisions.  The burst's first negotiation goes
// through a holder on the other event loop and keeps shard 0's claim
// while the rest of the burst arrives, so the queue of one fills by
// construction.
TEST(Service, TinyQueueBusyPreservesReplayEquivalence) {
  ServerConfig config = unixConfig(8);
  config.commandQueueCapacity = 1;
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Request first;
  first.command = Command::Negotiate;
  first.id = 1;
  first.payload = NegotiateRequest{makeSpec(0), 0};
  ASSERT_TRUE(holder.hold(server, first));

  PipelinedClient client(clientFor(server), /*window=*/64);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;

  struct Observed {
    task::TunableJobSpec spec;
    NegotiateResult result;
  };
  constexpr int kBurst = 200;
  std::vector<std::pair<task::TunableJobSpec,
                        PipelinedClient::ResponseFuture>>
      submitted;
  for (int r = 1; r < kBurst; ++r) {
    const auto spec = makeSpec(r);
    submitted.emplace_back(spec, client.negotiateAsync(spec, 0));
  }
  holder.release();
  std::vector<Observed> executed;
  {
    const auto held = holder.response();
    ASSERT_TRUE(held.ok()) << held.error;
    ASSERT_TRUE(held.response->ok);
    executed.push_back(
        {makeSpec(0), std::get<NegotiateResult>(held.response->result)});
  }
  int busy = 0;
  for (auto& [spec, future] : submitted) {
    auto decision = extractResult<NegotiateResult>(future.get());
    if (decision.ok()) {
      executed.push_back({spec, *decision});
    } else {
      ASSERT_EQ(decision.error.status, ClientStatus::Busy)
          << decision.error.message;
      ++busy;
    }
  }
  // The queue of one must have bounced part of the burst, and the head of
  // the burst always executes.
  EXPECT_GT(busy, 0);
  ASSERT_FALSE(executed.empty());
  EXPECT_EQ(static_cast<int>(executed.size()) + busy, kBurst);
  EXPECT_EQ(server.counters().busyRejections,
            static_cast<std::uint64_t>(busy));

  std::sort(executed.begin(), executed.end(),
            [](const Observed& a, const Observed& b) {
              return a.result.arrivalSeq < b.result.arrivalSeq;
            });
  qos::QoSArbitrator replay(config.processors);
  for (std::size_t i = 0; i < executed.size(); ++i) {
    // Dense sequence over executed commands only: rejected submissions
    // left no gap behind.
    ASSERT_EQ(executed[i].result.arrivalSeq, i);
    const auto decision =
        replay.submit(executed[i].spec, executed[i].result.release);
    ASSERT_EQ(replay.lastJobId().value(), executed[i].result.jobId);
    ASSERT_EQ(decision.admitted, executed[i].result.admitted);
    if (decision.admitted) {
      EXPECT_EQ(decision.quality, executed[i].result.quality);
      EXPECT_EQ(decision.schedule.placements,
                executed[i].result.placements);
    }
  }
  const auto replayReport = replay.verify();
  EXPECT_TRUE(replayReport.ok) << replayReport.firstViolation;

  QoSAgentClient checker(clientFor(server));
  const auto verify = checker.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// Sharded admission end to end: concurrent clients against a 4-shard
// server; every command is served, stats report the shard count, and the
// cross-shard ledgers verify clean.
TEST(Service, ShardedServerServesConcurrentClientsAndVerifies) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 20;
  auto config = unixConfig(16);
  config.shards = 4;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QoSAgentClient client(clientFor(server));
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto decision =
            client.negotiate(makeSpec(c * kRequestsPerClient + r), 0);
        ASSERT_TRUE(decision.ok()) << decision.error.message;
        if (decision->admitted) {
          admitted.fetch_add(1);
          if (r % 3 == 0) {
            const auto cancelled = client.cancel(decision->jobId);
            ASSERT_TRUE(cancelled.ok()) << cancelled.error.message;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(admitted.load(), 0);

  QoSAgentClient client(clientFor(server));
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shards, 4);
  EXPECT_EQ(stats->processors, 16);
  EXPECT_EQ(stats->admitted, static_cast<std::uint64_t>(admitted.load()));
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
}

// With spill disabled the shards are fully independent, so each shard's
// decisions replay exactly into an in-process arbitrator of the shard's
// size, fed that shard's jobs (jobId % K) in arrival order.
TEST(Service, ShardedDecisionsReplayPerShardWithSpillDisabled) {
  constexpr int kShards = 2;
  constexpr int kJobs = 60;
  auto config = unixConfig(16);
  config.shards = kShards;
  config.shardSpill = false;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  struct Observed {
    task::TunableJobSpec spec;
    NegotiateResult result;
  };
  std::vector<Observed> observed;
  {
    QoSAgentClient client(clientFor(server));
    for (int r = 0; r < kJobs; ++r) {
      const auto spec = makeSpec(r);
      const auto decision = client.negotiate(spec, 0);
      ASSERT_TRUE(decision.ok()) << decision.error.message;
      observed.push_back({spec, *decision});
    }
  }
  server.stop();

  for (int k = 0; k < kShards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    qos::QoSArbitrator replay(16 / kShards);
    for (const auto& o : observed) {
      if (static_cast<int>(o.result.jobId % kShards) != k) continue;
      const auto decision = replay.submit(o.spec, o.result.release);
      ASSERT_EQ(decision.admitted, o.result.admitted)
          << "jobId " << o.result.jobId;
      if (decision.admitted) {
        EXPECT_EQ(decision.schedule.chainIndex, o.result.chainIndex);
        EXPECT_EQ(decision.quality, o.result.quality);
        EXPECT_EQ(decision.schedule.placements, o.result.placements);
      }
    }
    const auto report = replay.verify();
    EXPECT_TRUE(report.ok) << report.firstViolation;
  }
}

// A machine cannot shrink below one processor per shard: the server
// answers bad_request before the arbitrator ever sees the resize.
TEST(Service, ShardedResizeBelowShardCountIsBadRequest) {
  auto config = unixConfig(16);
  config.shards = 4;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  QoSAgentClient client(clientFor(server));

  const auto bad = client.resize(2, /*when=*/0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error.status, ClientStatus::ServerError);
  EXPECT_EQ(bad.error.code, "bad_request");

  const auto grown = client.resize(20, /*when=*/0);
  ASSERT_TRUE(grown.ok()) << grown.error.message;
  EXPECT_EQ(grown->processorsBefore, 16);
  EXPECT_EQ(grown->processorsAfter, 20);
  server.stop();
}

// Kill the client the instant the request is written: the command still
// executes atomically and the ledger stays consistent.  A holder keeps
// shard 0's claim until the server has seen every client hang up, so each
// command runs after its client is gone — otherwise an idle shard answers
// before the client's close and the decision is delivered, not orphaned.
// Six event loops keep the clients off the holder's loop.
TEST(Service, DisconnectMidNegotiationLeavesArbitratorClean) {
  auto config = unixConfig(8);
  config.eventLoops = 6;
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(1)));
  auto& sessions = server.metricsRegistry()->gauge("server.sessions_active");

  for (int i = 0; i < 5; ++i) {
    net::Socket socket;
    ASSERT_TRUE(testutil::helloConnection(server, &socket));
    Request request;
    request.id = 42;
    request.command = Command::Negotiate;
    request.payload = NegotiateRequest{makeSpec(i), 0};
    const net::FrameLimits limits;
    ASSERT_TRUE(net::writeFrame(socket, encodeRequest(request), limits,
                                net::Deadline::after(1s))
                    .ok());
    socket.close();  // vanish without reading the decision
  }
  // Every client is gone (only the holder's session remains) before any
  // of their commands runs.
  for (int i = 0; i < 2500 && sessions.value() > 1; ++i) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(sessions.value(), 1)
      << "server.sessions_active read " << sessions.value()
      << ": a closed client's session is still open";
  holder.release();

  // Wait until all five orphaned commands executed.
  QoSAgentClient client(clientFor(server));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    const auto stats = client.stats();
    ASSERT_TRUE(stats.ok()) << stats.error.message;
    if (stats->admitted + stats->rejected >= 5) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "orphaned commands never executed";
    std::this_thread::sleep_for(10ms);
  }

  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  server.stop();
  EXPECT_EQ(server.counters().disconnectsMidRequest, 5u);
}

// Wire protocol v1 is retired: a connection whose first frame decodes but
// is not HELLO gets a typed unsupported_version error and then EOF, and
// nothing of the frame is committed — no execution, no trace record.
TEST(Service, FirstFrameOtherThanHelloGetsUnsupportedVersionThenEof) {
  auto config = unixConfig(8);
  config.recordPath = testing::TempDir() + "v1_refused_" +
                      std::to_string(::getpid()) + ".trace";
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Request negotiate;
  negotiate.id = 7;
  negotiate.command = Command::Negotiate;
  negotiate.payload = NegotiateRequest{makeSpec(1), 0};
  for (const Request& request : {negotiate, testutil::statsRequest(8)}) {
    SCOPED_TRACE(toString(request.command));
    auto connected =
        net::connectUnix(server.unixPath(), net::Deadline::after(1s));
    ASSERT_TRUE(connected.ok()) << connected.error;
    const net::FrameLimits limits;
    ASSERT_TRUE(net::writeFrame(connected.socket, encodeRequest(request),
                                limits, net::Deadline::after(1s))
                    .ok());
    auto frame = net::readFrame(connected.socket, limits,
                                net::Deadline::after(5s),
                                net::Deadline::after(5s));
    ASSERT_TRUE(frame.ok()) << frame.message;
    const auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    ASSERT_FALSE(decoded.response->ok);
    EXPECT_EQ(decoded.response->error->code, "unsupported_version");
    EXPECT_EQ(decoded.response->id, request.id);
    const auto next = net::readFrame(connected.socket, limits,
                                     net::Deadline::after(5s),
                                     net::Deadline::after(5s));
    EXPECT_EQ(next.status, net::FrameStatus::Closed) << next.message;
  }

  QoSAgentClient client(clientFor(server));
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.error.message;
  EXPECT_EQ(stats->commandsExecuted, 1u);  // this STATS alone
  EXPECT_EQ(stats->admitted + stats->rejected, 0u);
  server.stop();

  const auto trace = loadWireTrace(config.recordPath);
  ASSERT_TRUE(trace.ok()) << trace.message;
  ASSERT_EQ(trace.records.size(), 1u);
  const auto recorded = decodeRequest(trace.records[0].payload);
  ASSERT_TRUE(recorded.ok()) << recorded.error;
  EXPECT_EQ(recorded.request->command, Command::Stats);
  std::remove(config.recordPath.c_str());
}

// HELLO is only valid as the first frame: a second one is a bad request,
// and the connection keeps serving.
TEST(Service, SecondHelloIsBadRequestAndConnectionSurvives) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  net::Socket socket;
  ASSERT_TRUE(testutil::helloConnection(server, &socket));
  const net::FrameLimits limits;
  const auto roundTrip = [&](const Request& request) {
    EXPECT_TRUE(net::writeFrame(socket, encodeRequest(request), limits,
                                net::Deadline::after(1s))
                    .ok());
    auto frame = net::readFrame(socket, limits, net::Deadline::after(5s),
                                net::Deadline::after(5s));
    EXPECT_TRUE(frame.ok()) << frame.message;
    return decodeResponse(frame.payload);
  };

  Request hello;
  hello.version = kProtocolVersionV2;
  hello.command = Command::Hello;
  hello.id = 2;
  hello.payload = HelloRequest{8};
  const auto again = roundTrip(hello);
  ASSERT_TRUE(again.ok()) << again.error;
  ASSERT_FALSE(again.response->ok);
  EXPECT_EQ(again.response->error->code, "bad_request");
  EXPECT_EQ(again.response->id, 2u);

  const auto stats = roundTrip(testutil::statsRequest(3));
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_TRUE(stats.response->ok);
  EXPECT_EQ(stats.response->id, 3u);
  server.stop();
  EXPECT_EQ(server.counters().helloHandshakes, 1u);
}

// The blocking client's request deadline: a call the server does not
// answer in time (its shard's claim is held) fails with Timeout instead of
// hanging, and the next call reconnects and succeeds.
TEST(Service, BlockingClientTimesOutThenReconnects) {
  auto config = unixConfig(8);
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(1)));

  auto clientConfig = clientFor(server);
  clientConfig.requestDeadline = 200ms;
  QoSAgentClient client(clientConfig);
  const auto begin = std::chrono::steady_clock::now();
  const auto stalled = client.stats();
  const auto waited = std::chrono::steady_clock::now() - begin;
  ASSERT_FALSE(stalled.ok());
  EXPECT_EQ(stalled.error.status, ClientStatus::Timeout)
      << stalled.error.message;
  EXPECT_GE(waited, 200ms);
  EXPECT_LT(waited, 5s);
  EXPECT_FALSE(client.connected());

  holder.release();
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.error.message;
  EXPECT_TRUE(client.connected());
  // The holder, the timed-out connection and the fresh one.
  EXPECT_EQ(server.counters().connectionsAccepted, 3u);
  server.stop();
}

// A partial frame followed by a hangup must not wedge or down the server.
TEST(Service, TruncatedFrameClosesOnlyThatConnection) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    auto connected =
        net::connectUnix(server.unixPath(), net::Deadline::after(1s));
    ASSERT_TRUE(connected.ok()) << connected.error;
    // Declare a 100-byte payload, deliver 10, hang up.
    const char prefix[4] = {0, 0, 0, 100};
    ASSERT_TRUE(connected.socket
                    .writeAll(prefix, sizeof(prefix), net::Deadline::after(1s))
                    .ok());
    ASSERT_TRUE(connected.socket
                    .writeAll("0123456789", 10, net::Deadline::after(1s))
                    .ok());
    connected.socket.close();
  }

  // The server is still serving.
  QoSAgentClient client(clientFor(server));
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.error.message;
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok);
  // The truncated stream sits on the other event loop, and stop() ends
  // all reading: let that loop see the hangup first.  (The client's
  // commands run inline and can finish before it does on a loaded host.)
  for (int i = 0; i < 2500 && server.counters().framesMalformed == 0; ++i) {
    std::this_thread::sleep_for(2ms);
  }
  server.stop();
  EXPECT_GE(server.counters().framesMalformed, 1u);
}

// Malformed JSON in a well-formed frame: per-request error, connection (and
// server) survive.
TEST(Service, MalformedJsonGetsErrorResponseAndConnectionSurvives) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  net::Socket socket;
  ASSERT_TRUE(testutil::helloConnection(server, &socket));
  const net::FrameLimits limits;
  for (const std::string& bad :
       {std::string("this is not json"), std::string("{\"v\":1}"),
        std::string("{\"v\":1,\"id\":2,\"cmd\":\"FROB\"}")}) {
    ASSERT_TRUE(net::writeFrame(socket, bad, limits,
                                net::Deadline::after(1s))
                    .ok());
    auto frame = net::readFrame(socket, limits,
                                net::Deadline::after(1s),
                                net::Deadline::after(1s));
    ASSERT_TRUE(frame.ok()) << net::toString(frame.status);
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    EXPECT_FALSE(decoded.response->ok);
    EXPECT_EQ(decoded.response->error->code, "bad_request");
  }

  // Same connection still negotiates successfully afterwards.
  Request request;
  request.id = 7;
  request.command = Command::Stats;
  ASSERT_TRUE(net::writeFrame(socket, encodeRequest(request),
                              limits, net::Deadline::after(1s))
                  .ok());
  auto frame =
      net::readFrame(socket, limits, net::Deadline::after(1s),
                     net::Deadline::after(1s));
  ASSERT_TRUE(frame.ok());
  auto decoded = decodeResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.response->ok);
  EXPECT_EQ(decoded.response->id, 7u);
  server.stop();
  EXPECT_EQ(server.counters().framesMalformed, 3u);
}

// A frame whose numbers lie outside their fields' range draws bad_request
// (it used to abort the daemon in the tick conversion), and the same
// connection then negotiates normally.
TEST(Service, OutOfRangeFieldGetsBadRequestAndConnectionSurvives) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  net::Socket socket;
  ASSERT_TRUE(testutil::helloConnection(server, &socket));
  const net::FrameLimits limits;
  const auto roundTrip = [&](const std::string& payload) {
    EXPECT_TRUE(net::writeFrame(socket, payload, limits,
                                net::Deadline::after(1s))
                    .ok());
    auto frame = net::readFrame(socket, limits,
                                net::Deadline::after(5s),
                                net::Deadline::after(5s));
    EXPECT_TRUE(frame.ok()) << net::toString(frame.status);
    return decodeResponse(frame.payload);
  };
  for (const auto& [bad, field] :
       std::vector<std::pair<std::string, std::string>>{
           {R"({"v":1,"id":1,"cmd":"RESIZE","processors":4,"when":1e13})",
            "when"},
           {R"({"v":1,"id":2,"cmd":"NEGOTIATE","spec":{"chains":[{"tasks":)"
            R"([{"processors":1,"duration":1e13}]}]}})",
            "duration"}}) {
    const auto decoded = roundTrip(bad);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    EXPECT_FALSE(decoded.response->ok);
    EXPECT_EQ(decoded.response->error->code, "bad_request");
    EXPECT_NE(decoded.response->error->message.find(field), std::string::npos)
        << decoded.response->error->message;
  }

  Request request;
  request.id = 7;
  request.command = Command::Negotiate;
  request.payload = NegotiateRequest{makeSpec(1), 0};
  const auto decoded = roundTrip(encodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  ASSERT_TRUE(decoded.response->ok);
  EXPECT_EQ(decoded.response->id, 7u);
  EXPECT_TRUE(std::get<NegotiateResult>(decoded.response->result).admitted);
  server.stop();
  EXPECT_EQ(server.counters().framesMalformed, 2u);
}

// A NEGOTIATE whose numbers are each in range but whose area or horizon
// is not (8 processors x 2e12 units overflows int64 processor-ticks) draws
// a typed bad_request at admission, before anything is stamped — it used
// to overflow the arbitrator's area arithmetic — and the connection
// negotiates normally afterwards.
TEST(Service, OversizedAreaOrHorizonGetsBadRequestAndConnectionSurvives) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  net::Socket socket;
  ASSERT_TRUE(testutil::helloConnection(server, &socket));
  const net::FrameLimits limits;
  const auto roundTrip = [&](const std::string& payload) {
    EXPECT_TRUE(net::writeFrame(socket, payload, limits,
                                net::Deadline::after(1s))
                    .ok());
    auto frame = net::readFrame(socket, limits,
                                net::Deadline::after(5s),
                                net::Deadline::after(5s));
    EXPECT_TRUE(frame.ok()) << net::toString(frame.status);
    return decodeResponse(frame.payload);
  };
  for (const auto& [bad, what] :
       std::vector<std::pair<std::string, std::string>>{
           {R"({"v":1,"id":1,"cmd":"NEGOTIATE","spec":{"chains":[{"tasks":)"
            R"([{"processors":8,"duration":2e12}]}]}})",
            "area"},
           {R"({"v":1,"id":2,"cmd":"NEGOTIATE","release":2e9,"spec":)"
            R"({"chains":[{"tasks":[{"processors":1,"duration":10}]}]}})",
            "horizon"},
           {R"({"v":1,"id":3,"cmd":"NEGOTIATE","spec":{"chains":[{"tasks":)"
            R"([{"processors":1,"duration":6e8},)"
            R"({"processors":1,"duration":6e8}]}]}})",
            "area"}}) {
    const auto decoded = roundTrip(bad);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    EXPECT_FALSE(decoded.response->ok);
    EXPECT_EQ(decoded.response->error->code, "bad_request");
    EXPECT_NE(decoded.response->error->message.find(what), std::string::npos)
        << decoded.response->error->message;
    // The frame itself decoded: the error carries the request's id.
    EXPECT_NE(decoded.response->id, 0u);
  }

  Request request;
  request.id = 7;
  request.command = Command::Negotiate;
  request.payload = NegotiateRequest{makeSpec(1), 0};
  const auto decoded = roundTrip(encodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  ASSERT_TRUE(decoded.response->ok);
  EXPECT_EQ(decoded.response->id, 7u);
  const auto& result = std::get<NegotiateResult>(decoded.response->result);
  EXPECT_TRUE(result.admitted);
  // Nothing of the refused frames was committed: the first admitted job
  // took the first sequence number and job id.
  EXPECT_EQ(result.arrivalSeq, 0u);
  EXPECT_EQ(result.jobId, 0u);
  server.stop();
  EXPECT_EQ(server.counters().framesMalformed, 0u);
  EXPECT_EQ(server.counters().commandsExecuted, 1u);
}

// An oversized frame draws a best-effort error and loses the connection —
// and only that connection.
TEST(Service, OversizedFrameRejectedPerConnection) {
  auto config = unixConfig(8);
  config.maxFrameBytes = 256;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    net::Socket socket;
    ASSERT_TRUE(testutil::helloConnection(server, &socket));
    // The client-side limit is what we're bypassing here: hand-roll a frame
    // bigger than the server's cap.
    net::FrameLimits permissive;
    ASSERT_TRUE(net::writeFrame(socket, std::string(1024, 'x'),
                                permissive, net::Deadline::after(1s))
                    .ok());
    auto frame = net::readFrame(socket, permissive,
                                net::Deadline::after(1s),
                                net::Deadline::after(1s));
    ASSERT_TRUE(frame.ok()) << net::toString(frame.status);
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    EXPECT_FALSE(decoded.response->ok);
    EXPECT_EQ(decoded.response->error->code, "frame_too_large");
    // The server hangs up after the error.  Our oversized payload was never
    // consumed, so the close may surface as a reset (Error) rather than a
    // clean EOF; either way the connection is dead.
    auto next = net::readFrame(socket, permissive,
                               net::Deadline::after(1s),
                               net::Deadline::after(1s));
    EXPECT_TRUE(next.status == net::FrameStatus::Closed ||
                next.status == net::FrameStatus::Error)
        << net::toString(next.status);
  }

  // A fresh connection works.
  QoSAgentClient client(clientFor(server));
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.error.message;
  server.stop();
  EXPECT_EQ(server.counters().framesOversized, 1u);
}

// A queue of capacity 1 forces backpressure under 8-way load: a command
// that finds its queue full is refused with a typed `busy`, and a client
// that retries it still completes everything; the ledger stays consistent.
TEST(Service, BackpressureWithTinyQueueStillCompletesEverything) {
  auto config = unixConfig(8);
  config.commandQueueCapacity = 1;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kClients = 8;
  constexpr int kRequests = 10;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QoSAgentClient client(clientFor(server));
      for (int r = 0; r < kRequests; ++r) {
        auto decision = client.negotiate(makeSpec(c * 37 + r), 0);
        while (!decision.ok() && decision.error.status == ClientStatus::Busy) {
          std::this_thread::yield();
          decision = client.negotiate(makeSpec(c * 37 + r), 0);
        }
        ASSERT_TRUE(decision.ok()) << decision.error.message;
        completed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kClients * kRequests);
  QoSAgentClient client(clientFor(server));
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok);
  server.stop();
}

// Regression (gauge undercount under batching): the depth gauge used to be
// sampled by the worker, so a worker draining whole batches between
// samples hid every intermediate peak.  It is now set from the depth each
// push itself observed.  A holder on the other event loop keeps shard 0's
// claim, so six commands stack up with nobody draining, and the high-water
// mark must see them even though the worker never sampled the queue in
// between.
TEST(Service, QueueDepthGaugeSeesEveryPeakUnderBatching) {
  auto config = unixConfig(8);
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto* registry = server.metricsRegistry();
  ASSERT_NE(registry, nullptr);
  auto& gauge = registry->gauge("server.queue_depth");
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(1)));

  PipelinedClient client(clientFor(server), /*window=*/16);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;

  std::vector<PipelinedClient::ResponseFuture> futures;
  futures.push_back(client.negotiateAsync(makeSpec(0), 0));
  // The claim is held, so the first command queues...
  for (int i = 0; i < 500 && gauge.max() < 1; ++i) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GE(gauge.max(), 1);
  // ...and the next five stack up behind it with nobody draining.
  for (int r = 1; r <= 5; ++r) {
    futures.push_back(client.negotiateAsync(makeSpec(r), 0));
  }
  for (int i = 0; i < 500 && gauge.max() < 5; ++i) {
    std::this_thread::sleep_for(2ms);
  }
  holder.release();
  for (auto& future : futures) {
    auto decision = extractResult<NegotiateResult>(future.get());
    ASSERT_TRUE(decision.ok()) << decision.error.message;
  }
  EXPECT_GE(gauge.max(), 5);
  server.stop();
}

// Regression (shutdown lost wakeup): stop the server while the tiny queue
// is full, the worker is wedged mid-command, and a client has a command
// admitted behind it.  close() must wake the pipeline, everything admitted
// before the close must still execute and answer (the closeAndDrain
// contract), and the connection must end in a clean EOF — the old
// single-CV notify left this configuration hung.
TEST(Service, StopWhileClientWedgedAgainstFullTinyQueueDrainsAdmitted) {
  auto config = unixConfig(8);
  config.commandQueueCapacity = 1;
  std::atomic<bool> seamEntered{false};
  std::atomic<bool> seamRelease{false};
  std::atomic<int> seamCalls{0};
  const auto waitFor = [](const auto& done) {
    for (int i = 0; i < 2500 && !done(); ++i) {
      std::this_thread::sleep_for(2ms);
    }
  };
  // A holder on the other event loop keeps shard 0's claim until command
  // 1 has queued.  The worker then runs command 1 and is wedged in the
  // seam with the claim held, so command 2 queues behind it (filling the
  // queue of one) and command 3 bounces busy: when stop() begins, commands
  // 1 and 2 are provably admitted and one of them can only be answered if
  // the shutdown path drains what was admitted.
  testutil::ClaimHolder holder(&config, [&](int) {
    if (seamCalls.fetch_add(1) == 0) {
      seamEntered.store(true);
      while (!seamRelease.load()) std::this_thread::sleep_for(1ms);
    }
  });
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  auto& depth = server.metricsRegistry()->gauge("server.queue_depth");
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(100)));

  net::Socket socket;
  ASSERT_TRUE(testutil::helloConnection(server, &socket, /*window=*/4));
  const net::FrameLimits limits;
  const auto send = [&](std::uint64_t id) {
    Request request;
    request.command = Command::Negotiate;
    request.id = id;
    request.payload = NegotiateRequest{makeSpec(static_cast<int>(id)), 0};
    return net::writeFrame(socket, encodeRequest(request), limits,
                           net::Deadline::after(1s))
        .ok();
  };
  const auto read = [&] {
    return net::readFrame(socket, limits, net::Deadline::after(2s),
                          net::Deadline::after(2s));
  };

  // Command 1 queues behind the holder; the worker drains it (depth back
  // to 0) and is wedged running it.
  ASSERT_TRUE(send(1));
  waitFor([&] { return depth.value() == 1; });
  ASSERT_EQ(depth.value(), 1);
  holder.release();
  waitFor([&] { return seamEntered.load(); });
  ASSERT_TRUE(seamEntered.load());
  // Command 2 finds the claim taken and fills the queue of one.
  ASSERT_TRUE(send(2));
  waitFor([&] { return depth.value() == 1; });
  ASSERT_EQ(depth.value(), 1);
  // Command 3 finds the queue full: refused, nothing committed.
  ASSERT_TRUE(send(3));
  auto refused = read();
  ASSERT_TRUE(refused.ok()) << refused.message;
  const auto busy = decodeResponse(refused.payload);
  ASSERT_TRUE(busy.ok()) << busy.error;
  ASSERT_FALSE(busy.response->ok);
  EXPECT_EQ(busy.response->error->code, "busy");
  EXPECT_EQ(busy.response->id, 3u);

  std::thread stopper([&] { server.stop(); });
  // Give stop() time to reach the queue close, then un-wedge the worker;
  // the close must be what wakes the pipeline the rest of the way.
  std::this_thread::sleep_for(50ms);
  seamRelease.store(true);
  stopper.join();

  // Both admitted commands answered, in execution order, then a clean EOF.
  std::vector<std::uint64_t> answered;
  net::FrameReadResult frame = read();
  for (; frame.ok(); frame = read()) {
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    ASSERT_TRUE(decoded.response->ok);
    answered.push_back(decoded.response->id);
  }
  EXPECT_EQ(frame.status, net::FrameStatus::Closed) << frame.message;
  EXPECT_EQ(answered, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(server.counters().commandsExecuted, 3u);  // the holder's too
}

// A worker whose queue holds commands while another thread keeps the
// consumer claim parks until the claim is released; it does not re-poll
// the non-empty queue.  The holder keeps shard 0's claim for 200 ms with
// three commands queued behind it; every claim attempt that finds the
// claim taken is counted, and a spinning worker would make millions.
TEST(Service, WorkerParksWhileAnotherThreadHoldsTheClaim) {
  auto config = unixConfig(8);
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(1)));

  PipelinedClient client(clientFor(server), /*window=*/8);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  std::vector<PipelinedClient::ResponseFuture> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(client.statsAsync());
  std::this_thread::sleep_for(200ms);
  const auto missesWhileHeld = server.counters().claimMisses;
  holder.release();
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.error.message;
  }
  // A miss per read batch on the loop (at most one per queued command),
  // and about one per wakeup on the worker before it parks.
  EXPECT_GE(missesWhileHeld, 1u);
  EXPECT_LE(missesWhileHeld, 16u);
  const auto counters = server.counters();
  EXPECT_EQ(counters.commandsExecuted, 4u);
  EXPECT_EQ(counters.commandsInline, 1u);  // the held STATS
  client.close();
  server.stop();
}

// stop() waits for in-flight work, then refuses new connections; idle open
// sessions do not stall the drain.
TEST(Service, GracefulDrainCompletesInFlightAndRefusesNewWork) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::string path = server.unixPath();

  // An idle connection that never sends anything.
  auto idle = net::connectUnix(path, net::Deadline::after(1s));
  ASSERT_TRUE(idle.ok()) << idle.error;

  // A burst of real work racing the shutdown.
  std::vector<std::thread> threads;
  std::atomic<int> answered{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      QoSAgentClient client(clientFor(server));
      for (int r = 0; r < 5; ++r) {
        const auto decision = client.negotiate(makeSpec(c + r * 11), 0);
        if (!decision.ok()) return;  // raced the drain; acceptable
        answered.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(20ms);
  const auto stopBegin = std::chrono::steady_clock::now();
  server.stop();
  const auto stopTook = std::chrono::steady_clock::now() - stopBegin;
  for (auto& thread : threads) thread.join();

  // Every request that got in was answered before stop() returned...
  EXPECT_GT(answered.load(), 0);
  // ...the drain didn't hang on the idle session...
  EXPECT_LT(stopTook, 5s);
  // ...and the endpoint is gone afterwards.
  ClientConfig lateConfig;
  lateConfig.unixPath = path;
  lateConfig.connectAttempts = 1;
  QoSAgentClient late(lateConfig);
  const auto result = late.stats();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, ClientStatus::ConnectFailed);
}

TEST(Service, ClientReportsConnectFailedAfterExhaustingRetries) {
  ClientConfig config;
  config.unixPath = "/tmp/tprm-svc-test-no-such-server.sock";
  config.connectAttempts = 3;
  config.connectBackoff = 1ms;
  QoSAgentClient client(config);
  const auto begin = std::chrono::steady_clock::now();
  const auto result = client.stats();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, ClientStatus::ConnectFailed);
  // Backoff 1ms + 2ms between the three attempts.
  EXPECT_GE(std::chrono::steady_clock::now() - begin, 3ms);
}

TEST(Service, ClientRetriesUntilServerAppears) {
  auto config = unixConfig(8);
  const std::string path = config.unixPath;
  NegotiationServer server(config);

  std::thread starter([&] {
    std::this_thread::sleep_for(50ms);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
  });

  ClientConfig clientConfig;
  clientConfig.unixPath = path;
  clientConfig.connectAttempts = 50;
  clientConfig.connectBackoff = 10ms;
  QoSAgentClient client(clientConfig);
  const auto stats = client.stats();
  starter.join();
  ASSERT_TRUE(stats.ok()) << stats.error.message;
  EXPECT_EQ(stats->processors, 8);
  server.stop();
}

// Retry backoff plan invariants (no sockets involved).
TEST(Backoff, PlanDoublesThenClampsAtCap) {
  ClientConfig config;
  config.connectAttempts = 8;
  config.connectBackoff = 1ms;
  config.maxConnectBackoff = 4ms;
  const auto plan = connectBackoffPlan(config);
  const std::vector<std::chrono::milliseconds> expected = {
      0ms, 1ms, 2ms, 4ms, 4ms, 4ms, 4ms, 4ms};
  EXPECT_EQ(plan, expected);
}

TEST(Backoff, FirstAttemptIsImmediate) {
  ClientConfig config;
  config.connectAttempts = 1;
  EXPECT_EQ(connectBackoffPlan(config),
            std::vector<std::chrono::milliseconds>{0ms});
  // A non-positive attempt count still yields one immediate attempt.
  config.connectAttempts = 0;
  EXPECT_EQ(connectBackoffPlan(config),
            std::vector<std::chrono::milliseconds>{0ms});
}

TEST(Backoff, CapBelowInitialBackoffClampsEveryRetry) {
  ClientConfig config;
  config.connectAttempts = 4;
  config.connectBackoff = 100ms;
  config.maxConnectBackoff = 10ms;
  const auto plan = connectBackoffPlan(config);
  const std::vector<std::chrono::milliseconds> expected = {0ms, 10ms, 10ms,
                                                           10ms};
  EXPECT_EQ(plan, expected);
}

TEST(Backoff, ManyAttemptsNeverExceedCapOrOverflow) {
  // Regression: unbounded doubling overflowed the chrono rep after ~40
  // retries and produced negative sleeps; every entry must now respect the
  // configured ceiling no matter how long the client keeps retrying.
  ClientConfig config;
  config.connectAttempts = 64;
  config.connectBackoff = 20ms;
  const auto plan = connectBackoffPlan(config);
  ASSERT_EQ(plan.size(), 64u);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_GE(plan[i], plan[i - 1]) << "attempt " << i;
    EXPECT_GT(plan[i], 0ms) << "attempt " << i;
    EXPECT_LE(plan[i], config.maxConnectBackoff) << "attempt " << i;
  }
  EXPECT_EQ(plan.back(), config.maxConnectBackoff);
}

// Observability: the metrics/trace layer rides along the loopback path.
TEST(Observability, ServerSnapshotCoversNegotiationLifecycle) {
  NegotiationServer server(unixConfig(16));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  QoSAgentClient client(clientFor(server));
  const auto decision = client.negotiate(makeSpec(1), /*release=*/0);
  ASSERT_TRUE(decision.ok()) << decision.error.message;
  ASSERT_TRUE(decision->admitted);
  const auto cancelled = client.cancel(decision->jobId);
  ASSERT_TRUE(cancelled.ok());
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());

  const JsonValue snapshot = server.observabilitySnapshot();
  EXPECT_TRUE(snapshot.find("enabled")->asBool());

  const auto* counters = snapshot.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("arbitrator.negotiations")->asNumber(), 1.0);
  EXPECT_EQ(counters->find("arbitrator.admitted")->asNumber(), 1.0);
  EXPECT_EQ(counters->find("arbitrator.cancels")->asNumber(), 1.0);
  EXPECT_GE(counters->find("arbitrator.profile.fit_probes")->asNumber(), 1.0);
  EXPECT_GE(counters->find("arbitrator.heuristic.chains_evaluated")->asNumber(),
            1.0);

  const auto* gauges = snapshot.find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("server.queue_depth"), nullptr);

  // Every executed command left a span and a queue-wait observation.
  const auto executed = server.counters().commandsExecuted;
  EXPECT_EQ(executed, 3u);
  // A sequential client always finds its shard idle: every command ran to
  // completion on the event loop.
  const auto* serverSection = snapshot.find("server");
  EXPECT_EQ(serverSection->find("commands_inline")->asNumber(),
            static_cast<double>(executed));
  EXPECT_EQ(serverSection->find("commands_executed")->asNumber(),
            static_cast<double>(executed));
  const auto* spans = snapshot.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->isArray());
  ASSERT_EQ(spans->asArray().size(), executed);
  EXPECT_EQ(spans->asArray()[0].find("name")->asString(), "NEGOTIATE");
  EXPECT_TRUE(spans->asArray()[0].find("ok")->asBool());
  // The span keeps the grant as values; the snapshot renders the detail.
  ASSERT_EQ(decision->chainIndex, 0u);
  ASSERT_EQ(decision->quality, 1.0);
  EXPECT_EQ(spans->asArray()[0].find("detail")->asString(),
            "chain=0 quality=1.000");
  const auto* waits = snapshot.find("histograms")->find("server.queue_wait_us");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->find("count")->asNumber(), static_cast<double>(executed));

  server.stop();
}

TEST(Observability, DisabledServerKeepsOnlyPlainCounters) {
  auto config = unixConfig(8);
  config.observability = false;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.metricsRegistry(), nullptr);
  EXPECT_EQ(server.traceRing(), nullptr);

  QoSAgentClient client(clientFor(server));
  ASSERT_TRUE(client.stats().ok());

  const JsonValue snapshot = server.observabilitySnapshot();
  EXPECT_FALSE(snapshot.find("enabled")->asBool());
  EXPECT_EQ(snapshot.find("counters"), nullptr);
  EXPECT_EQ(snapshot.find("spans"), nullptr);
  // The always-on plain server counters remain available either way.
  ASSERT_NE(snapshot.find("server"), nullptr);
  EXPECT_GE(snapshot.find("server")->find("commands_executed")->asNumber(),
            1.0);
  server.stop();
}

TEST(Observability, ClientRegistryCountsRequestsAndLatency) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  obs::MetricsRegistry registry;
  auto config = clientFor(server);
  config.metrics = &registry;
  QoSAgentClient client(config);
  ASSERT_TRUE(client.stats().ok());
  ASSERT_TRUE(client.verify().ok());

  EXPECT_EQ(registry.counter("client.requests").value(), 2u);
  EXPECT_EQ(registry.counter("client.request_errors").value(), 0u);
  EXPECT_GE(registry.counter("client.connect_attempts").value(), 1u);
  EXPECT_EQ(registry.counter("client.connect_failures").value(), 0u);
  const auto& latency = obs::latencyHistogram(registry, "client.request_us");
  EXPECT_EQ(latency.count(), 2u);
  EXPECT_GT(latency.max(), 0.0);
  server.stop();
}

TEST(Observability, FailedConnectCountsFailures) {
  obs::MetricsRegistry registry;
  ClientConfig config;
  config.unixPath = "/tmp/tprm-svc-test-no-such-server.sock";
  config.connectAttempts = 2;
  config.connectBackoff = 1ms;
  config.metrics = &registry;
  QoSAgentClient client(config);
  ASSERT_FALSE(client.stats().ok());
  EXPECT_EQ(registry.counter("client.connect_attempts").value(), 2u);
  EXPECT_EQ(registry.counter("client.connect_failures").value(), 1u);
  EXPECT_EQ(registry.counter("client.request_errors").value(), 1u);
}

// Wire protocol codec invariants (no sockets involved).
TEST(Protocol, RequestAndResponseCodecsRoundTrip) {
  Request request;
  request.id = 99;
  request.command = Command::Negotiate;
  request.payload = NegotiateRequest{makeSpec(5), ticksFromUnits(12.5)};
  const auto decodedRequest = decodeRequest(encodeRequest(request));
  ASSERT_TRUE(decodedRequest.ok()) << decodedRequest.error;
  EXPECT_EQ(decodedRequest.request->id, 99u);
  EXPECT_EQ(decodedRequest.request->command, Command::Negotiate);
  const auto& payload =
      std::get<NegotiateRequest>(decodedRequest.request->payload);
  EXPECT_EQ(payload.spec, makeSpec(5));
  EXPECT_EQ(payload.release, ticksFromUnits(12.5));

  Response response;
  response.id = 99;
  response.ok = true;
  NegotiateResult result;
  result.admitted = true;
  result.jobId = 3;
  result.arrivalSeq = 17;
  result.chainIndex = 1;
  result.quality = 0.6;
  result.release = ticksFromUnits(12.5);
  result.placements = {{TimeInterval{0, ticksFromUnits(10.0)}, 4,
                        ticksFromUnits(60.0)}};
  result.bindings = {{"level", 9}};
  result.chainsConsidered = 2;
  result.chainsSchedulable = 1;
  response.result = result;
  const auto decodedResponse = decodeResponse(encodeResponse(response));
  ASSERT_TRUE(decodedResponse.ok()) << decodedResponse.error;
  const auto& out =
      std::get<NegotiateResult>(decodedResponse.response->result);
  EXPECT_EQ(out.jobId, 3u);
  EXPECT_EQ(out.arrivalSeq, 17u);
  EXPECT_EQ(out.chainIndex, 1u);
  EXPECT_EQ(out.quality, 0.6);
  EXPECT_EQ(out.placements, result.placements);
  EXPECT_EQ(out.bindings, result.bindings);
}

TEST(Protocol, DecodeRejectsGarbageWithoutAborting) {
  for (const std::string& bad :
       {std::string(""), std::string("null"), std::string("[]"),
        std::string("{\"v\":3,\"id\":1,\"cmd\":\"STATS\"}"),
        std::string("{\"v\":1,\"cmd\":\"STATS\"}"),
        std::string("{\"v\":1,\"id\":1,\"cmd\":\"NEGOTIATE\"}"),
        std::string("{\"v\":1,\"id\":1,\"cmd\":\"CANCEL\"}")}) {
    EXPECT_FALSE(decodeRequest(bad).ok()) << bad;
  }
  EXPECT_FALSE(decodeResponse("{\"ok\":true}").ok());
  EXPECT_FALSE(decodeResponse("not json").ok());

  // Numbers outside their field's range are rejected with an error naming
  // the field.  Times beyond the tick range used to abort the decoder, and
  // the narrowing casts of the integer fields were undefined behaviour.
  const std::string task =
      R"({"name":"t","processors":2,"duration":5,"deadline":50})";
  const auto negotiate = [](const std::string& spec) {
    return R"({"v":1,"id":1,"cmd":"NEGOTIATE","spec":{"chains":[)" + spec +
           "]}}";
  };
  const auto withTask = [&](const std::string& field) {
    return negotiate(R"({"name":"c","tasks":[{"name":"t","processors":2,)"
                     R"("duration":5,)" +
                     field + "}]}");
  };
  struct Case {
    std::string frame;
    const char* field;
  };
  const std::vector<Case> requests = {
      {R"({"v":1,"id":1,"cmd":"RESIZE","processors":4,"when":1e13})", "when"},
      {R"({"v":1,"id":1,"cmd":"RESIZE","processors":1e10})", "processors"},
      {R"({"v":1,"id":1,"cmd":"RESIZE","processors":-3e9})", "processors"},
      {R"({"v":1,"id":1e20,"cmd":"STATS"})", "'id'"},
      {R"({"v":1e20,"id":1,"cmd":"STATS"})", "'v'"},
      {R"({"v":1,"id":1,"cmd":"CANCEL","jobId":1e20})", "jobId"},
      {R"({"v":2,"id":1,"cmd":"HELLO","window":1e20})", "window"},
      {R"({"v":2,"id":1,"cmd":"HELLO","window":4294967296})", "window"},
      {R"({"v":1,"id":1,"cmd":"NEGOTIATE","release":1e13,"spec":{"chains":[{"tasks":[)" +
           task + "]}]}}",
       "release"},
      {negotiate(R"({"tasks":[{"processors":2,"duration":1e13}]})"),
       "duration"},
      {negotiate(R"({"tasks":[{"processors":1e10,"duration":5}]})"),
       "processors"},
      {withTask(R"("deadline":1e13)"), "deadline"},
      {withTask(R"("maxConcurrency":1e10)"), "maxConcurrency"},
      {negotiate(R"({"bindings":{"g":1e19},"tasks":[)" + task + "]}"),
       "bindings.g"},
      {negotiate(R"({"tasks":[{"processors":2e9,"duration":2e12,)"
                 R"("maxConcurrency":2e9}]})"),
       "processors x duration"},
  };
  for (const auto& [frame, field] : requests) {
    const auto decoded = decodeRequest(frame);
    ASSERT_FALSE(decoded.ok()) << frame;
    EXPECT_NE(decoded.error.find(field), std::string::npos)
        << frame << " -> " << decoded.error;
    EXPECT_NE(decoded.error.find("out of range"), std::string::npos)
        << frame << " -> " << decoded.error;
  }

  const std::string placement =
      R"({"begin":0,"end":5,"processors":2,"deadline":50})";
  // `fields` (each with a leading comma) come last: a repeated key wins.
  const auto admitted = [&](const std::string& fields,
                            const std::string& placements) {
    return R"({"id":1,"ok":true,"cmd":"NEGOTIATE","result":{)"
           R"("admitted":true,"arrivalSeq":1,"jobId":2,"release":0,)"
           R"("chainsConsidered":1,"chainsSchedulable":1,"chainIndex":0,)"
           R"("quality":1,"placements":[)" +
           placements + "]" + fields + "}}";
  };
  const std::vector<Case> responses = {
      {R"({"id":1e20,"ok":false,"error":{"code":"busy","message":""}})",
       "'id'"},
      {R"({"id":1,"ok":false,"window":1e10,"error":{"code":"busy","message":""}})",
       "window"},
      {admitted(R"(,"chainIndex":1e20)", placement), "chainIndex"},
      {admitted(R"(,"arrivalSeq":1e20)", placement), "arrivalSeq"},
      {admitted(R"(,"jobId":1e20)", placement), "jobId"},
      {admitted(R"(,"release":1e13)", placement), "release"},
      {admitted(R"(,"chainsConsidered":1e10)", placement), "chainsConsidered"},
      {admitted(R"(,"chainsSchedulable":1e10)", placement),
       "chainsSchedulable"},
      {admitted(R"(,"bindings":{"g":1e19})", placement), "binding 'g'"},
      {admitted("", R"({"begin":1e13,"end":5,"processors":2})"), "begin"},
      {admitted("", R"({"begin":0,"end":1e13,"processors":2})"), "end"},
      {admitted("", R"({"begin":0,"end":5,"processors":1e10})"), "processors"},
      {admitted("", R"({"begin":0,"end":5,"processors":2,"deadline":1e13})"),
       "deadline"},
      {R"({"id":1,"ok":true,"cmd":"CANCEL","result":{"freed":1e13}})", "freed"},
      {R"({"id":1,"ok":true,"cmd":"RESIZE","result":{"processorsBefore":1e10,)"
       R"("processorsAfter":4,"kept":[],"reconfigured":[],"dropped":[]}})",
       "processorsBefore"},
      {R"({"id":1,"ok":true,"cmd":"RESIZE","result":{"processorsBefore":8,)"
       R"("processorsAfter":4,"kept":[-5],"reconfigured":[],"dropped":[]}})",
       "'kept'"},
      {R"({"id":1,"ok":true,"cmd":"STATS","result":{"processors":8,)"
       R"("clock":1e13,"admitted":1,"rejected":1,"commandsExecuted":2}})",
       "clock"},
      {R"({"id":1,"ok":true,"cmd":"STATS","result":{"processors":8,"clock":0,)"
       R"("admitted":1,"rejected":1,"commandsExecuted":2,"shards":1e10}})",
       "shards"},
      {R"({"id":1,"ok":true,"cmd":"VERIFY","result":{"ok":true,)"
       R"("violations":1e10}})",
       "violations"},
      {R"({"id":1,"ok":true,"cmd":"HELLO","result":{"version":2,)"
       R"("window":4294967296}})",
       "window"},
      {R"({"id":0,"ok":true,"cmd":"RESHAPED","result":{"events":[{"jobId":1,)"
       R"("promotion":true,"fromChain":1e20,"toChain":0,"fromQuality":0.5,)"
       R"("toQuality":1,"placements":[]}]}})",
       "fromChain"},
  };
  for (const auto& [frame, field] : responses) {
    const auto decoded = decodeResponse(frame);
    ASSERT_FALSE(decoded.ok()) << frame;
    EXPECT_NE(decoded.error.find(field), std::string::npos)
        << frame << " -> " << decoded.error;
    EXPECT_NE(decoded.error.find("out of range"), std::string::npos)
        << frame << " -> " << decoded.error;
  }

  // A long chain of durations near the tick range must not overflow the
  // critical-path sum in task::validate: it decodes, whatever the verdict.
  std::string longChain;
  for (int k = 0; k < 6; ++k) {
    longChain += std::string(k == 0 ? "" : ",") +
                 R"({"processors":1,"duration":2e12})";
  }
  EXPECT_TRUE(decodeRequest(negotiate(R"({"tasks":[)" + longChain + "]}"))
                  .ok());
}

}  // namespace
}  // namespace tprm::service
