// The negotiation service over binary-encoded connections: a real
// NegotiationServer, raw connections that ask for binary frames at HELLO
// and speak them by hand, and PipelinedClient's side of the grant.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "claim_holder.h"
#include "elastic/reshaper.h"
#include "net/frame.h"
#include "net/socket.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace tprm::service {
namespace {

using namespace std::chrono_literals;

int gSocketCounter = 0;

std::string freshSocketPath() {
  return "/tmp/tprm-binary-test-" + std::to_string(::getpid()) + "-" +
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

task::TunableJobSpec spec(const std::string& name, int processors,
                          double duration, double deadline,
                          std::int64_t level) {
  task::TunableJobSpec out;
  out.name = name;
  task::Chain only;
  only.name = "only";
  only.bindings = {{"level", level}};
  only.tasks = {task::TaskSpec::rigid("t", processors, ticksFromUnits(duration),
                                      ticksFromUnits(deadline))};
  out.chains = {only};
  return out;
}

/// A raw connection on binary frames: one request out, one frame back.
class BinaryConnection {
 public:
  ::testing::AssertionResult open(const NegotiationServer& server,
                                  std::uint32_t window = 8) {
    return testutil::helloConnection(server, &socket_, window, nullptr,
                                     Encoding::Binary);
  }

  ::testing::AssertionResult send(const Request& request) {
    return sendRaw(encodeRequestBinary(request));
  }
  ::testing::AssertionResult sendRaw(const std::string& payload) {
    if (!net::writeFrame(socket_, payload, limits_, net::Deadline::after(1s))
             .ok()) {
      return ::testing::AssertionFailure() << "write failed";
    }
    return ::testing::AssertionSuccess();
  }
  ::testing::AssertionResult sendBurst(const std::vector<Request>& requests) {
    std::string wire;
    for (const auto& request : requests) {
      if (!net::appendFrame(wire, encodeRequestBinary(request), limits_)
               .ok()) {
        return ::testing::AssertionFailure() << "frame refused";
      }
    }
    if (!socket_.writeAll(wire.data(), wire.size(), net::Deadline::after(1s))
             .ok()) {
      return ::testing::AssertionFailure() << "write failed";
    }
    return ::testing::AssertionSuccess();
  }

  /// The next frame, which must decode as a binary response.
  Response receive() {
    auto frame = net::readFrame(socket_, limits_, net::Deadline::after(5s),
                                net::Deadline::after(5s));
    EXPECT_TRUE(frame.ok()) << frame.message;
    auto decoded = decodeResponseBinary(frame.payload);
    EXPECT_TRUE(decoded.ok()) << decoded.error;
    return decoded.ok() ? std::move(*decoded.response) : Response{};
  }

  Response call(const Request& request) {
    EXPECT_TRUE(send(request));
    return receive();
  }

 private:
  net::Socket socket_;
  const net::FrameLimits limits_;
};

Request negotiate(std::uint64_t id, const task::TunableJobSpec& jobSpec,
                  Time release = 0) {
  Request request;
  request.version = kProtocolVersionV2;
  request.id = id;
  request.command = Command::Negotiate;
  request.payload = NegotiateRequest{jobSpec, release};
  return request;
}

Request plain(std::uint64_t id, Command command) {
  Request request;
  request.version = kProtocolVersionV2;
  request.id = id;
  request.command = command;
  return request;
}

// Every command over binary frames gets the answer a JSON connection to an
// identical server gets.
TEST(BinaryService, EveryCommandAnswersAsOverJson) {
  std::vector<Request> script = {
      negotiate(2, spec("a", 4, 10, 50, 1)),
      negotiate(3, spec("b", 8, 30, 40, 2)),
      negotiate(4, spec("c", 16, 5, 100, 3)),  // wider than the machine
  };
  Request cancel = plain(5, Command::Cancel);
  cancel.payload = CancelRequest{0};
  script.push_back(cancel);
  script.push_back(plain(6, Command::Stats));
  script.push_back(plain(7, Command::Verify));
  Request resize = plain(8, Command::Resize);
  resize.payload = ResizeRequest{6, ticksFromUnits(2)};
  script.push_back(resize);
  Request badResize = plain(9, Command::Resize);
  badResize.payload = ResizeRequest{0, 0};
  script.push_back(badResize);

  std::vector<Response> overJson;
  std::vector<Response> overBinary;
  for (const bool binary : {false, true}) {
    NegotiationServer server(unixConfig(8));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    net::Socket json;
    BinaryConnection bin;
    if (binary) {
      ASSERT_TRUE(bin.open(server));
    } else {
      ASSERT_TRUE(testutil::helloConnection(server, &json));
    }
    const net::FrameLimits limits;
    for (const auto& request : script) {
      if (binary) {
        overBinary.push_back(bin.call(request));
        continue;
      }
      ASSERT_TRUE(net::writeFrame(json, encodeRequest(request), limits,
                                  net::Deadline::after(1s))
                      .ok());
      auto frame = net::readFrame(json, limits, net::Deadline::after(5s),
                                  net::Deadline::after(5s));
      ASSERT_TRUE(frame.ok()) << frame.message;
      auto decoded = decodeResponse(frame.payload);
      ASSERT_TRUE(decoded.ok()) << decoded.error;
      overJson.push_back(*decoded.response);
    }
    server.stop();
  }
  ASSERT_EQ(overBinary.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(overBinary[i], overJson[i]) << i;
  }
  // Non-vacuity: an admission with bindings, a rejection, a freed cancel,
  // a RESIZE report and a refused RESIZE.
  const auto& admitted = std::get<NegotiateResult>(overBinary[0].result);
  EXPECT_TRUE(admitted.admitted);
  EXPECT_EQ(admitted.bindings.at("level"), 1);
  EXPECT_FALSE(std::get<NegotiateResult>(overBinary[2].result).admitted);
  EXPECT_GT(std::get<CancelResult>(overBinary[3].result).freedTicks, 0);
  EXPECT_TRUE(std::get<VerifyResult>(overBinary[5].result).ok);
  EXPECT_EQ(std::get<ResizeResult>(overBinary[6].result).processorsAfter, 6);
  ASSERT_FALSE(overBinary[7].ok);
  EXPECT_EQ(overBinary[7].error->code, "bad_request");
}

// A binary frame that does not decode gets a binary bad_request and the
// connection survives; so does a spec past the admission bound.
TEST(BinaryService, BadFramesGetBadRequestAndTheConnectionSurvives) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  BinaryConnection conn;
  ASSERT_TRUE(conn.open(server));

  const auto stats = encodeRequestBinary(plain(2, Command::Stats));
  for (const std::string& bad :
       {std::string("\x63garbage"), stats.substr(0, stats.size() - 1),
        stats + '\0', encodeRequest(plain(3, Command::Stats))}) {
    ASSERT_TRUE(conn.sendRaw(bad));
    const Response response = conn.receive();
    ASSERT_FALSE(response.ok);
    EXPECT_EQ(response.error->code, "bad_request");
    EXPECT_EQ(response.id, 0u);
  }
  // 8 processors for 2^49 ticks: a valid frame over the admission bound.
  auto huge = spec("huge", 8, 1, 1e12, 0);
  huge.chains[0].tasks[0].request.duration = Time{1} << 49;
  huge.chains[0].tasks[0].relativeDeadline = kTimeInfinity;
  const Response refused = conn.call(negotiate(4, huge));
  ASSERT_FALSE(refused.ok);
  EXPECT_EQ(refused.error->code, "bad_request");
  EXPECT_EQ(refused.id, 4u);
  EXPECT_NE(refused.error->message.find("bad spec"), std::string::npos)
      << refused.error->message;

  const Response alive = conn.call(plain(5, Command::Stats));
  ASSERT_TRUE(alive.ok);
  EXPECT_EQ(std::get<StatsResult>(alive.result).admitted, 0u);
  EXPECT_EQ(server.counters().framesMalformed, 4u);
  server.stop();
}

// Past the window, a binary connection gets a binary `busy` carrying the
// window in force, and keeps being served.
TEST(BinaryService, WindowExceededGetsBinaryBusy) {
  ServerConfig config = unixConfig(8);
  testutil::ClaimHolder holder(&config);
  NegotiationServer server(config);
  const auto unblock = holder.releaseOnExit();
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_TRUE(holder.hold(server, testutil::statsRequest(1)));

  BinaryConnection conn;
  ASSERT_TRUE(conn.open(server, /*window=*/1));
  constexpr int kBurst = 12;
  std::vector<Request> burst;
  for (int i = 0; i < kBurst; ++i) {
    burst.push_back(plain(100 + static_cast<std::uint64_t>(i),
                          Command::Stats));
  }
  ASSERT_TRUE(conn.sendBurst(burst));
  int ok = 0;
  int busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    const Response response = conn.receive();
    if (response.ok) {
      ++ok;
      continue;
    }
    ASSERT_TRUE(response.error.has_value());
    ASSERT_EQ(response.error->code, "busy");
    EXPECT_EQ(response.advertisedWindow, std::optional<std::uint32_t>(1));
    ++busy;
    holder.release();
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(busy, 1);
  EXPECT_EQ(ok + busy, kBurst);
  const Response again = conn.call(plain(999, Command::Stats));
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.id, 999u);
  server.stop();
}

task::TunableJobSpec twoRungSpec() {
  task::TunableJobSpec out;
  out.name = "malleable";
  task::Chain full;
  full.name = "full";
  full.tasks = {task::TaskSpec::rigid("w", 8, ticksFromUnits(50.0),
                                      ticksFromUnits(80.0), 1.0)};
  task::Chain lean;
  lean.name = "lean";
  lean.tasks = {task::TaskSpec::rigid("n", 2, ticksFromUnits(100.0),
                                      ticksFromUnits(400.0), 0.5)};
  out.chains = {full, lean};
  return out;
}

// An elastic server's RESHAPED pushes reach a binary connection as binary
// frames, right behind the response of the command that caused them.
TEST(BinaryService, ReshapedPushesArriveAsBinaryFrames) {
  elastic::Reshaper reshaper;
  ServerConfig config = unixConfig(8);
  config.reshapePolicy = &reshaper;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  BinaryConnection conn;
  ASSERT_TRUE(conn.open(server));

  const Response first = conn.call(negotiate(2, twoRungSpec()));
  ASSERT_TRUE(first.ok);
  const auto& granted = std::get<NegotiateResult>(first.result);
  ASSERT_TRUE(granted.admitted);
  // Statically impossible behind the full-machine rung: admitted by
  // demoting the first job.
  const Response second = conn.call(negotiate(3, spec("tight", 4, 40, 60, 0)));
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.id, 3u);
  EXPECT_TRUE(std::get<NegotiateResult>(second.result).admitted);
  const Response push = conn.receive();
  ASSERT_TRUE(push.ok);
  EXPECT_EQ(push.id, 0u);
  const auto* reshaped = std::get_if<ReshapedPush>(&push.result);
  ASSERT_NE(reshaped, nullptr);
  ASSERT_EQ(reshaped->events.size(), 1u);
  EXPECT_EQ(reshaped->events[0].jobId, granted.jobId);
  EXPECT_FALSE(reshaped->events[0].promotion);
  EXPECT_EQ(reshaped->events[0].toQuality, 0.5);
  EXPECT_FALSE(reshaped->events[0].placements.empty());
  server.stop();
}

// The origin map that routes pushes keeps no entry for a rejected job,
// nor for a cancelled one; what is left is the admitted jobs.
TEST(BinaryService, RejectedNegotiationsLeaveNoReshapeOrigin) {
  elastic::Reshaper reshaper;
  ServerConfig config = unixConfig(8);
  config.reshapePolicy = &reshaper;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  PipelinedClient client(clientFor(server), /*window=*/8);
  const auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;

  const auto admitted = extractResult<NegotiateResult>(
      client.negotiateAsync(spec("fits", 2, 10, 1000, 0), 0).get());
  ASSERT_TRUE(admitted.ok()) << admitted.error.message;
  ASSERT_TRUE(admitted->admitted);
  for (int i = 0; i < 50; ++i) {
    const auto rejected = extractResult<NegotiateResult>(
        client.negotiateAsync(spec("wide", 16, 10, 100, 0), 0).get());
    ASSERT_TRUE(rejected.ok()) << rejected.error.message;
    ASSERT_FALSE(rejected->admitted);
  }
  EXPECT_EQ(server.counters().reshapeOrigins, 1u);
  ASSERT_TRUE(client.cancelAsync(admitted->jobId).get().ok());
  EXPECT_EQ(server.counters().reshapeOrigins, 0u);
  server.stop();
}

TEST(BinaryService, PipelinedClientAsksForAndGetsBinary) {
  NegotiationServer server(unixConfig(8));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  PipelinedClient client(clientFor(server), /*window=*/4);
  EXPECT_EQ(client.encoding(), Encoding::Json);
  const auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  EXPECT_EQ(client.encoding(), Encoding::Binary);
  const auto decision = extractResult<NegotiateResult>(
      client.negotiateAsync(spec("a", 4, 10, 50, 7), 0).get());
  ASSERT_TRUE(decision.ok()) << decision.error.message;
  EXPECT_TRUE(decision->admitted);
  EXPECT_EQ(decision->bindings.at("level"), 7);
  server.stop();
}

// A server whose HELLO grant does not echo the encoding (one that predates
// binary frames) keeps the client on JSON, in both directions.
TEST(BinaryService, PipelinedClientStaysOnJsonWithoutTheGrant) {
  const std::string path = freshSocketPath();
  std::string error;
  auto listener = net::Listener::listenUnix(path, &error);
  ASSERT_TRUE(listener.valid()) << error;
  std::string helloSeen;
  std::string requestSeen;
  std::thread server([&] {
    auto accepted = listener.accept(net::Deadline::after(5s));
    if (accepted.status != net::IoStatus::Ok) return;
    net::Socket socket = std::move(accepted.socket);
    const net::FrameLimits limits;
    auto hello = net::readFrame(socket, limits, net::Deadline::after(5s),
                                net::Deadline::after(5s));
    if (!hello.ok()) return;
    helloSeen = hello.payload;
    const auto decoded = decodeRequest(hello.payload);
    if (!decoded.ok()) return;
    Response grant;
    grant.id = decoded.request->id;
    grant.ok = true;
    grant.result = HelloResult{kProtocolVersionV2, 4};  // no encoding
    (void)net::writeFrame(socket, encodeResponse(grant), limits,
                          net::Deadline::after(1s));
    auto next = net::readFrame(socket, limits, net::Deadline::after(5s),
                               net::Deadline::after(5s));
    if (!next.ok()) return;
    requestSeen = next.payload;
    const auto request = decodeRequest(next.payload);
    if (!request.ok()) return;
    Response stats;
    stats.id = request.request->id;
    stats.ok = true;
    stats.result = StatsResult{8, 0, 0, 0, 1, 1};
    (void)net::writeFrame(socket, encodeResponse(stats), limits,
                          net::Deadline::after(1s));
  });

  ClientConfig config;
  config.unixPath = path;
  PipelinedClient client(config, /*window=*/4);
  const auto connectError = client.connect();
  ASSERT_FALSE(connectError.has_value()) << connectError->message;
  EXPECT_EQ(client.encoding(), Encoding::Json);
  const auto stats = extractResult<StatsResult>(client.statsAsync().get());
  ASSERT_TRUE(stats.ok()) << stats.error.message;
  EXPECT_EQ(stats->processors, 8);
  client.close();
  server.join();
  EXPECT_NE(helloSeen.find("\"encoding\": \"binary\""), std::string::npos)
      << helloSeen;
  EXPECT_EQ(requestSeen, encodeRequest(plain(2, Command::Stats)));
}

}  // namespace
}  // namespace tprm::service
