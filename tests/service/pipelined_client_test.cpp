// PipelinedClient without a reader thread: whichever thread needs a
// response reads the socket itself, one reader at a time.  These tests pin
// the routing (every future gets its own response, whoever read it), the
// reads a blocked submit does on its own, and the ways a waiting thread is
// released: close() from another thread, the client going away, and the
// server stopping.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "claim_holder.h"
#include "qos/qos.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace tprm::service {
namespace {

using namespace std::chrono_literals;

int gSocketCounter = 0;

ServerConfig unixConfig(int processors) {
  ServerConfig config;
  config.processors = processors;
  config.unixPath = "/tmp/tprm-pipe-test-" + std::to_string(::getpid()) +
                    "-" + std::to_string(gSocketCounter++) + ".sock";
  return config;
}

ClientConfig clientFor(const NegotiationServer& server) {
  ClientConfig config;
  config.unixPath = server.unixPath();
  return config;
}

/// A two-chain job whose widths, durations and bindings depend on `salt`,
/// so every request of a burst is distinguishable by its decision.
task::TunableJobSpec makeSpec(int salt) {
  task::TunableJobSpec spec;
  spec.name = "pipe-" + std::to_string(salt);
  const int wide = 2 + (salt % 4);
  const double dur = 10.0 + (salt % 7) * 5.0;
  task::Chain eager;
  eager.name = "eager";
  eager.bindings = {{"salt", salt}};
  eager.tasks = {task::TaskSpec::rigid("burst", wide, ticksFromUnits(dur),
                                       ticksFromUnits(60.0))};
  task::Chain lean;
  lean.name = "lean";
  lean.bindings = {{"salt", salt}};
  lean.tasks = {task::TaskSpec::rigid("burst", 1, ticksFromUnits(dur * 1.5),
                                      ticksFromUnits(90.0), 0.6)};
  spec.chains = {eager, lean};
  return spec;
}

std::size_t threadCount() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(PipelinedClient, ConnectStartsNoThread) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::size_t before = threadCount();
  PipelinedClient client(clientFor(server), /*window=*/4);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  EXPECT_TRUE(client.statsAsync().get().ok());
  EXPECT_EQ(threadCount(), before);
  client.close();
  server.stop();
}

// Eight threads share one connection with a window of four, so most waits
// are followers whose responses another thread reads.  Every future must
// still resolve to its own request: the bindings echo the spec's salt, and
// the decisions replay exactly into an in-process arbitrator in arrival
// order.
TEST(PipelinedClient, EightThreadsShareOneClientAndMatchReplay) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 8;
  constexpr int kPerRound = 3;
  const int processors = 8;
  NegotiationServer server(unixConfig(processors));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  PipelinedClient client(clientFor(server), /*window=*/4);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  ASSERT_EQ(client.grantedWindow(), 4u);

  struct Observed {
    int salt;
    NegotiateResult result;
  };
  std::vector<std::vector<Observed>> perThread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::pair<int, PipelinedClient::ResponseFuture>> batch;
        for (int i = 0; i < kPerRound; ++i) {
          const int salt = (t * kRounds + round) * kPerRound + i;
          batch.emplace_back(salt, client.negotiateAsync(makeSpec(salt), 0));
        }
        for (auto& [salt, future] : batch) {
          auto decision = extractResult<NegotiateResult>(future.get());
          ASSERT_TRUE(decision.ok()) << decision.error.message;
          if (decision->admitted) {
            EXPECT_EQ(decision->bindings.at("salt"), salt);
          }
          perThread[static_cast<std::size_t>(t)].push_back(
              {salt, *decision});
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<const Observed*> byArrival;
  for (const auto& observations : perThread) {
    for (const auto& observed : observations) byArrival.push_back(&observed);
  }
  ASSERT_EQ(byArrival.size(),
            static_cast<std::size_t>(kThreads * kRounds * kPerRound));
  std::sort(byArrival.begin(), byArrival.end(),
            [](const Observed* a, const Observed* b) {
              return a->result.arrivalSeq < b->result.arrivalSeq;
            });
  qos::QoSArbitrator replay(processors);
  for (std::size_t i = 0; i < byArrival.size(); ++i) {
    const Observed& observed = *byArrival[i];
    ASSERT_EQ(observed.result.arrivalSeq, i);
    const auto decision =
        replay.submit(makeSpec(observed.salt), observed.result.release);
    ASSERT_EQ(replay.lastJobId().value(), observed.result.jobId);
    ASSERT_EQ(decision.admitted, observed.result.admitted) << "salt "
                                                           << observed.salt;
    if (decision.admitted) {
      EXPECT_EQ(decision.schedule.chainIndex, observed.result.chainIndex);
      EXPECT_EQ(decision.schedule.placements, observed.result.placements);
    }
  }
  client.close();
  server.stop();
}

// One thread, nobody else reading: a submit that finds the window full
// reads the responses it waits for itself.
TEST(PipelinedClient, SubmitPastAFullWindowReadsItself) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  PipelinedClient client(clientFor(server), /*window=*/2);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  ASSERT_EQ(client.grantedWindow(), 2u);

  std::vector<PipelinedClient::ResponseFuture> futures;
  for (int i = 0; i < 50; ++i) futures.push_back(client.statsAsync());
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.error.message;
  }
  client.close();
  server.stop();
}

// close() from another thread wakes a thread blocked reading for a
// response that cannot come yet (its shard's claim is held).
TEST(PipelinedClient, CloseWakesAThreadBlockedInGet) {
  auto config = unixConfig(8);
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(1)));

  PipelinedClient client(clientFor(server), /*window=*/4);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  auto future = client.statsAsync();
  ClientResult<Response> result;
  std::thread waiter([&] { result = future.get(); });
  std::this_thread::sleep_for(50ms);
  const auto closeStart = std::chrono::steady_clock::now();
  client.close();
  waiter.join();
  EXPECT_LT(std::chrono::steady_clock::now() - closeStart, 2s);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, ClientStatus::Disconnected);
  EXPECT_FALSE(client.connected());
  holder.release();
  server.stop();
}

// A future outlives its client: it shares the connection's state, not the
// client, so reading it afterwards is safe and reports Disconnected.
TEST(PipelinedClient, FutureReadAfterTheClientIsGoneIsDisconnected) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  PipelinedClient::ResponseFuture future;
  {
    PipelinedClient client(clientFor(server), /*window=*/4);
    auto connectError = client.connect();
    ASSERT_FALSE(connectError.has_value()) << connectError->message;
    future = client.statsAsync();
  }
  const auto result = future.get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, ClientStatus::Disconnected);
  // get() is one-shot: a second read reports Disconnected too.
  EXPECT_EQ(future.get().error.status, ClientStatus::Disconnected);
  server.stop();
}

// server.stop() while a thread waits: the server stops reading frames
// before it drains, so requests it never read are never answered, and the
// connection's close fails every one of them.  One event loop, held in the
// execute seam, keeps the requests unread until stop() has begun.
TEST(PipelinedClient, ServerStopFailsEveryPendingFuture) {
  auto config = unixConfig(8);
  config.eventLoops = 1;
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.connect(server));
  PipelinedClient client(clientFor(server), /*window=*/4);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(1)));

  const std::string path = server.unixPath();
  std::thread stopper([&] { server.stop(); });
  // stop() unlinks the socket file just before it asks the loop to drain.
  for (int i = 0; i < 2500 && std::filesystem::exists(path); ++i) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_FALSE(std::filesystem::exists(path));
  std::this_thread::sleep_for(20ms);

  std::vector<ClientResult<Response>> results(3);
  std::thread waiter([&] {
    std::vector<PipelinedClient::ResponseFuture> futures;
    for (int i = 0; i < 3; ++i) futures.push_back(client.statsAsync());
    for (std::size_t i = 0; i < futures.size(); ++i) {
      results[i] = futures[i].get();
    }
  });
  std::this_thread::sleep_for(50ms);
  holder.release();
  stopper.join();
  waiter.join();
  for (const auto& result : results) {
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.error.status, ClientStatus::Disconnected)
        << result.error.message;
  }
}

// An oversized request is refused locally and rolled back out of the send
// buffer: the next request's frame reaches the server intact.
TEST(PipelinedClient, OversizedRequestFailsAloneAndIsRolledBack) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto clientConfig = clientFor(server);
  clientConfig.maxFrameBytes = 256;
  PipelinedClient client(clientConfig, /*window=*/4, /*corked=*/true);
  auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;

  auto small = client.cancelAsync(7);
  task::TunableJobSpec huge = makeSpec(1);
  for (int i = 0; i < 8; ++i) huge.chains.push_back(huge.chains[0]);
  const auto refused = client.negotiateAsync(huge, 0).get();
  EXPECT_EQ(refused.error.status, ClientStatus::ProtocolError);
  auto after = client.cancelAsync(8);
  ASSERT_FALSE(client.flush().has_value());
  for (auto* future : {&small, &after}) {
    const auto result = future->get();
    EXPECT_NE(result.error.status, ClientStatus::ProtocolError)
        << result.error.message;
    EXPECT_NE(result.error.status, ClientStatus::Disconnected)
        << result.error.message;
  }
  EXPECT_TRUE(client.connected());
  client.close();
  server.stop();
}

}  // namespace
}  // namespace tprm::service
