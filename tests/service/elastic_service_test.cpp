// Elastic mode across the wire: a real NegotiationServer with an
// elastic::Reshaper attached, real client connections.  Pins the delivery
// of arbitrator-initiated quality moves as RESHAPED pushes, plus the
// adaptive pipeline window the server re-advertises under queue pressure.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "elastic/reshaper.h"
#include "net/frame.h"
#include "net/socket.h"
#include "claim_holder.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace tprm::service {
namespace {

using namespace std::chrono_literals;

int gSocketCounter = 0;

std::string freshSocketPath() {
  return "/tmp/tprm-elastic-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(gSocketCounter++) + ".sock";
}

ServerConfig elasticConfig(int processors, const qos::ReshapePolicy* policy) {
  ServerConfig config;
  config.processors = processors;
  config.unixPath = freshSocketPath();
  config.reshapePolicy = policy;
  return config;
}

ClientConfig clientFor(const NegotiationServer& server) {
  ClientConfig config;
  config.unixPath = server.unixPath();
  return config;
}

/// A malleable contract on an 8-processor machine: a greedy full-machine
/// rung and a 2-processor fallback at half quality.  The generous fallback
/// deadline keeps demotion feasible whenever 2 processors are free.
task::TunableJobSpec twoRungSpec() {
  task::TunableJobSpec spec;
  spec.name = "malleable";
  task::Chain full;
  full.name = "full";
  full.tasks = {task::TaskSpec::rigid("w", 8, ticksFromUnits(50.0),
                                      ticksFromUnits(80.0), 1.0)};
  task::Chain lean;
  lean.name = "lean";
  lean.tasks = {task::TaskSpec::rigid("n", 2, ticksFromUnits(100.0),
                                      ticksFromUnits(400.0), 0.5)};
  spec.chains = {full, lean};
  return spec;
}

/// Rigid, one chain, tight deadline: statically unschedulable behind the
/// full-machine rung, admissible once the reshaper demotes it to lean.
task::TunableJobSpec tightSpec() {
  task::TunableJobSpec spec;
  spec.name = "tight";
  task::Chain only;
  only.name = "only";
  only.tasks = {task::TaskSpec::rigid("t", 4, ticksFromUnits(40.0),
                                      ticksFromUnits(60.0), 1.0)};
  spec.chains = {only};
  return spec;
}

// A newcomer that is statically impossible is admitted by demoting an
// earlier job; the trade arrives as an unsolicited RESHAPED push on the
// connection that negotiated the demoted job.  Cancelling the newcomer
// promotes the job back, again as a push.
TEST(ElasticService, V2ClientReceivesReshapedPushes) {
  elastic::Reshaper reshaper;
  NegotiationServer server(elasticConfig(8, &reshaper));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  PipelinedClient client(clientFor(server), /*window=*/8);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;

  auto first =
      extractResult<NegotiateResult>(client.negotiateAsync(twoRungSpec(), 0)
                                         .get());
  ASSERT_TRUE(first.ok()) << first.error.message;
  ASSERT_TRUE(first->admitted);

  auto second =
      extractResult<NegotiateResult>(client.negotiateAsync(tightSpec(), 0)
                                         .get());
  ASSERT_TRUE(second.ok()) << second.error.message;
  ASSERT_TRUE(second->admitted);

  // The push rides the same inbox batch as the newcomer's response but may
  // land just after the future resolves; poll briefly.
  std::vector<ReshapeEvent> events;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (events.empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "RESHAPED push never arrived";
    auto drained = client.drainReshapeEvents();
    events.insert(events.end(), drained.begin(), drained.end());
    if (events.empty()) std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].jobId, first->jobId);
  EXPECT_FALSE(events[0].promotion);
  EXPECT_EQ(events[0].fromQuality, 1.0);
  EXPECT_EQ(events[0].toQuality, 0.5);
  EXPECT_FALSE(events[0].placements.empty());
  // The drain took the event.
  EXPECT_TRUE(client.drainReshapeEvents().empty());

  // Cancelling the newcomer frees the machine; the promotion pass walks the
  // demoted job back to its full-quality rung.  A push is written before
  // any later response, so after the STATS round trip it is in.
  ASSERT_TRUE(extractResult<CancelResult>(
                  client.cancelAsync(second->jobId).get())
                  .ok());
  ASSERT_TRUE(client.statsAsync().get().ok());
  const auto promoted = client.drainReshapeEvents();
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_EQ(promoted[0].jobId, first->jobId);
  EXPECT_TRUE(promoted[0].promotion);
  EXPECT_EQ(promoted[0].toQuality, 1.0);
  client.close();

  EXPECT_EQ(server.counters().reshapeEventsDispatched, 2u);
  server.stop();
}

// A push for a connection with nothing outstanding stays in its socket
// (the client has no reader thread) until drainReshapeEvents() reads it.
TEST(ElasticService, PushWithNoRequestOutstandingIsDrained) {
  elastic::Reshaper reshaper;
  NegotiationServer server(elasticConfig(8, &reshaper));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  PipelinedClient idle(clientFor(server), /*window=*/8);
  auto connectError = idle.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  auto first = extractResult<NegotiateResult>(
      idle.negotiateAsync(twoRungSpec(), 0).get());
  ASSERT_TRUE(first.ok()) << first.error.message;
  ASSERT_TRUE(first->admitted);

  // Another connection's newcomer demotes the idle client's job.
  QoSAgentClient other(clientFor(server));
  auto second = other.negotiate(tightSpec(), 0);
  ASSERT_TRUE(second.ok()) << second.error.message;
  ASSERT_TRUE(second->admitted);

  std::vector<ReshapeEvent> events;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (events.empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "RESHAPED push never drained";
    events = idle.drainReshapeEvents();
    if (events.empty()) std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].jobId, first->jobId);
  EXPECT_FALSE(events[0].promotion);
  EXPECT_TRUE(idle.drainReshapeEvents().empty());
  idle.close();
  server.stop();
}

// Output ordering across the two execution paths.  A command a shard
// worker ran reaches the client through the event loop's inbox, RESHAPED
// pushes included; a later command the same loop runs inline must not
// overtake them.  Two shards of 8 processors (spill off): shard 0's claim
// is held so the demoting NEGOTIATE queues, and the connection's loop is
// itself held inside a shard-1 command until the worker has executed the
// demotion and posted its push; the next shard-1 command then runs inline
// on that loop, and its response must come after the push.
TEST(ElasticService, WorkerPushesPrecedeALaterInlineResponse) {
  elastic::Reshaper reshaper;
  ServerConfig config = elasticConfig(16, &reshaper);
  config.shards = 2;
  config.shardSpill = false;
  config.workerBatch = 1;
  std::atomic<bool> loopGateArmed{false};
  std::atomic<bool> loopGateEntered{false};
  std::atomic<int> workerRuns{0};
  std::atomic<bool> demotionPosted{false};
  testutil::ClaimHolder holder(&config, [&](int shard) {
    if (shard == 0) {
      // One command per batch: the second queued shard-0 command starts
      // only after the first one's response and pushes were posted.
      if (loopGateEntered.load() && workerRuns.fetch_add(1) == 1) {
        demotionPosted.store(true);
      }
      return;
    }
    if (loopGateArmed.load() && !loopGateEntered.exchange(true)) {
      for (int i = 0; i < 5000 && !demotionPosted.load(); ++i) {
        std::this_thread::sleep_for(2ms);
      }
    }
  });
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.connect(server));  // loop 0

  net::Socket socket;  // loop 1
  ASSERT_TRUE(testutil::helloConnection(server, &socket));
  const net::FrameLimits limits;
  const auto send = [&](std::vector<Request> requests) {
    std::string wire;
    for (auto& request : requests) {
      request.version = kProtocolVersionV2;
      EXPECT_TRUE(net::appendFrame(wire, encodeRequest(request), limits).ok());
    }
    EXPECT_TRUE(
        socket.writeAll(wire.data(), wire.size(), net::Deadline::after(1s))
            .ok());
  };
  const auto receive = [&] {
    auto frame = net::readFrame(socket, limits, net::Deadline::after(10s),
                                net::Deadline::after(10s));
    EXPECT_TRUE(frame.ok()) << frame.message;
    auto decoded = decodeResponse(frame.payload);
    EXPECT_TRUE(decoded.ok()) << decoded.error;
    return decoded.response.value_or(Response{});
  };
  const auto negotiate = [](std::uint64_t id, task::TunableJobSpec spec) {
    Request request;
    request.command = Command::Negotiate;
    request.id = id;
    request.payload = NegotiateRequest{std::move(spec), 0};
    return request;
  };
  const auto cancel = [](std::uint64_t id, std::uint64_t jobId) {
    Request request;
    request.command = Command::Cancel;
    request.id = id;
    request.payload = CancelRequest{jobId};
    return request;
  };

  // Job 0 (shard 0) takes the whole shard at full quality; job 1 fills
  // shard 1's id slot, so the next negotiation is job 2, on shard 0.
  send({negotiate(10, twoRungSpec())});
  const Response first = receive();
  ASSERT_TRUE(first.ok);
  ASSERT_EQ(std::get<NegotiateResult>(first.result).jobId, 0u);
  ASSERT_EQ(std::get<NegotiateResult>(first.result).quality, 1.0);
  send({negotiate(11, tightSpec())});
  ASSERT_TRUE(receive().ok);

  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(100)));
  // Job 2 demotes job 0 when it runs; the STATS behind it marks, in the
  // seam, that the worker has posted job 2's response and push.
  send({negotiate(12, tightSpec()), testutil::statsRequest(13)});
  auto& depth = server.metricsRegistry()->gauge("server.queue_depth.shard0");
  for (int i = 0; i < 2500 && depth.value() < 2; ++i) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(depth.value(), 2);
  // Two shard-1 commands in one read: the first holds this loop until the
  // push is posted, the second then runs inline.  Jobs 1001 and 1003 never
  // exist; cancelling them changes nothing.
  loopGateArmed.store(true);
  send({cancel(14, 1001), cancel(15, 1003)});
  for (int i = 0; i < 2500 && !loopGateEntered.load(); ++i) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(loopGateEntered.load());
  holder.release();

  std::vector<std::string> order;
  while (order.empty() || order.back() != "15") {
    const Response response = receive();
    ASSERT_TRUE(response.ok);
    if (const auto* pushed = std::get_if<ReshapedPush>(&response.result)) {
      ASSERT_EQ(pushed->events.size(), 1u);
      EXPECT_EQ(pushed->events[0].jobId, 0u);
      EXPECT_FALSE(pushed->events[0].promotion);
      order.push_back("push");
    } else {
      order.push_back(std::to_string(response.id));
    }
    ASSERT_LT(order.size(), 8u);
  }
  const auto position = [&](const std::string& what) {
    return std::find(order.begin(), order.end(), what) - order.begin();
  };
  const auto last = static_cast<std::ptrdiff_t>(order.size()) - 1;
  EXPECT_LT(position("push"), last);
  EXPECT_LT(position("12"), last);
  EXPECT_LT(position("14"), last);
  EXPECT_GE(server.counters().commandsInline, 4u);  // jobs 0, 1, both CANCELs
  server.stop();
}

// Without a policy the second job must be rejected — the pair of specs
// above only admits through the reshaper (the ablation in miniature).
TEST(ElasticService, StaticServerRejectsWhatElasticAdmits) {
  ServerConfig config;
  config.processors = 8;
  config.unixPath = freshSocketPath();
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  QoSAgentClient client(clientFor(server));
  const auto first = client.negotiate(twoRungSpec(), 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->admitted);
  const auto second = client.negotiate(tightSpec(), 0);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->admitted);

  // A static server never pushes a move.  Pushes precede any later
  // response, so after one more round trip every push would be in.
  ASSERT_TRUE(client.stats().ok());
  EXPECT_TRUE(client.drainReshapeEvents().empty());
  server.stop();
}

// --- Adaptive pipeline window ----------------------------------------------

TEST(AdaptiveWindow, MapsQueuePressureToWindow) {
  // Unpressured: the full grant.
  EXPECT_EQ(adaptiveWindow(0, 256, 64), 64u);
  EXPECT_EQ(adaptiveWindow(63, 256, 64), 64u);
  // Depth at a quarter of capacity: half the grant.
  EXPECT_EQ(adaptiveWindow(64, 256, 64), 32u);
  EXPECT_EQ(adaptiveWindow(127, 256, 64), 32u);
  // Depth at half of capacity: an eighth of the grant.
  EXPECT_EQ(adaptiveWindow(128, 256, 64), 8u);
  EXPECT_EQ(adaptiveWindow(256, 256, 64), 8u);
  // Never below one in-flight request.
  EXPECT_EQ(adaptiveWindow(256, 256, 4), 1u);
  EXPECT_EQ(adaptiveWindow(300, 256, 1), 1u);
  // Degenerate configurations leave the window alone.
  EXPECT_EQ(adaptiveWindow(10, 0, 64), 64u);
  EXPECT_EQ(adaptiveWindow(0, 0, 0), 1u);
}

// Tiny queue + deliberately expensive negotiations on one raw v2
// connection: every frame is answered exactly once (no deadlock, no lost
// responses), the connection survives, and at least one response
// re-advertises a window below the HELLO grant.  A holder on the other
// event loop keeps shard 0's claim until the first busy response has been
// read, so the two-slot queue fills by construction, not by the event
// loop out-running the worker.
TEST(AdaptiveWindow, TinyQueueBurstLosesNothingAndShrinksTheWindow) {
  ServerConfig config;
  config.processors = 8;
  config.unixPath = freshSocketPath();
  config.commandQueueCapacity = 2;
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(1)));

  net::Socket socket;
  std::uint32_t granted = 0;
  ASSERT_TRUE(testutil::helloConnection(server, &socket, 64, &granted));
  ASSERT_GE(granted, 2u);
  const net::FrameLimits limits;

  // Heavy NEGOTIATEs (dozens of chains each) keep the two-slot queue full
  // while the burst drains, so busy responses and window re-advertisements
  // both fire.
  constexpr int kBurst = 60;
  std::string wire;
  for (int i = 0; i < kBurst; ++i) {
    task::TunableJobSpec heavy = twoRungSpec();
    for (int extra = 0; extra < 24; ++extra) {
      heavy.chains.push_back(
          heavy.chains[static_cast<std::size_t>(extra % 2)]);
    }
    Request negotiate;
    negotiate.command = Command::Negotiate;
    negotiate.id = 100 + static_cast<std::uint64_t>(i);
    negotiate.payload = NegotiateRequest{std::move(heavy), 0};
    ASSERT_TRUE(net::appendFrame(wire, encodeRequest(negotiate), limits).ok());
  }
  ASSERT_TRUE(socket
                  .writeAll(wire.data(), wire.size(), net::Deadline::after(5s))
                  .ok());

  int ok = 0;
  int busy = 0;
  std::uint32_t minAdvertised = granted;
  for (int i = 0; i < kBurst; ++i) {
    auto frame =
        net::readFrame(socket, limits, net::Deadline::after(10s),
                       net::Deadline::after(10s));
    ASSERT_TRUE(frame.ok()) << frame.message;
    auto decoded = decodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    if (decoded.response->advertisedWindow.has_value()) {
      minAdvertised =
          std::min(minAdvertised, *decoded.response->advertisedWindow);
    }
    if (decoded.response->ok) {
      ++ok;
    } else {
      ASSERT_EQ(decoded.response->error->code, "busy");
      ++busy;
      holder.release();
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GT(busy, 0);
  EXPECT_EQ(ok + busy, kBurst);
  // Pressure showed through: some response carried a shrunken window.
  EXPECT_LT(minAdvertised, granted);

  // The connection still works afterwards.
  Request stats;
  stats.command = Command::Stats;
  stats.id = 9999;
  ASSERT_TRUE(net::writeFrame(socket, encodeRequest(stats), limits,
                              net::Deadline::after(1s))
                  .ok());
  auto frame =
      net::readFrame(socket, limits, net::Deadline::after(5s),
                     net::Deadline::after(5s));
  ASSERT_TRUE(frame.ok());
  auto decoded = decodeResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.response->ok);
  server.stop();
}

// The pipelined client obeys the re-advertised window and restores the
// HELLO grant once pressure clears.
TEST(AdaptiveWindow, PipelinedClientShrinksThenRestores) {
  ServerConfig config;
  config.processors = 8;
  config.unixPath = freshSocketPath();
  config.commandQueueCapacity = 2;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  PipelinedClient client(clientFor(server), /*window=*/32);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  const std::uint32_t granted = client.grantedWindow();
  EXPECT_EQ(client.currentWindow(), granted);

  constexpr int kBurst = 120;
  std::vector<PipelinedClient::ResponseFuture> futures;
  futures.reserve(kBurst);
  for (int r = 0; r < kBurst; ++r) {
    futures.push_back(client.negotiateAsync(twoRungSpec(), 0));
  }
  int answered = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    if (!result.ok()) {
      ASSERT_EQ(result.error.status, ClientStatus::Busy)
          << result.error.message;
    }
    ++answered;
  }
  EXPECT_EQ(answered, kBurst);

  // Quiesce: cheap commands on the now-idle server come back unstamped and
  // the client walks its window back to the grant.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (client.currentWindow() != granted) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "window never restored (stuck at " << client.currentWindow()
        << " of " << granted << ")";
    auto stats = client.statsAsync().get();
    ASSERT_TRUE(stats.ok()) << stats.error.message;
    std::this_thread::sleep_for(5ms);
  }
  client.close();
  server.stop();
}

}  // namespace
}  // namespace tprm::service
