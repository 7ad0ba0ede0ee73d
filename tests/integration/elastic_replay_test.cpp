// Elastic acceptance checks that span the whole stack:
//
//  1. Record→replay decision identity with --elastic semantics: a wire
//     trace recorded from a live elastic server replays into BOTH a fresh
//     in-process elastic ShardedArbitrator and a fresh elastic daemon with
//     identical decisions AND an identical stream of arbitrator-initiated
//     quality moves, at shards=1 and shards=4.
//
//  2. The multi-tenant floor golden pin: under an elastic server no
//     committed demotion ever takes a job below its tenant's quality
//     floor, because demotion only lands on chains the job itself offered
//     and the generator filters offered chains to the floor.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <variant>
#include <vector>

#include <unistd.h>

#include "elastic/reshaper.h"
#include "qos/sharded.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/wiretrace.h"
#include "workload/scenario.h"

namespace tprm::service {
namespace {

struct Decision {
  bool admitted = false;
  std::uint64_t jobId = 0;
  std::size_t chainIndex = 0;
  double quality = 0.0;
  Time release = 0;
};

/// A quality move normalized from either qos::QualityMove (in-process) or
/// ReshapeEvent (over the wire).
struct Move {
  std::uint64_t jobId = 0;
  bool promotion = false;
  std::size_t fromChain = 0;
  std::size_t toChain = 0;
  double fromQuality = 0.0;
  double toQuality = 0.0;
};

std::string socketPath(const std::string& tag) {
  return testing::TempDir() + "tprm_elastic_replay_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

std::vector<workload::ScenarioJob> scenarioJobs(const std::string& name,
                                                std::size_t jobs) {
  const auto params = workload::scenarioByName(name, 97, jobs);
  return workload::ScenarioGenerator(*params).generate().jobs;
}

/// Records a trace by driving a live elastic server sequentially (one
/// connection): the trace is then a total order of NEGOTIATEs.
void recordTrace(const std::string& tracePath, int shards,
                 const qos::ReshapePolicy* policy,
                 const std::vector<workload::ScenarioJob>& jobs) {
  ServerConfig config;
  config.processors = 32;
  config.shards = shards;
  config.unixPath = socketPath("record" + std::to_string(shards));
  config.recordPath = tracePath;
  config.reshapePolicy = policy;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ClientConfig clientConfig;
  clientConfig.unixPath = config.unixPath;
  QoSAgentClient client(clientConfig);
  for (const auto& job : jobs) {
    const auto result = client.negotiate(job.spec, job.release);
    ASSERT_TRUE(result.ok()) << result.error.message;
  }
  client.close();
  server.stop();
}

std::vector<Request> decodeTrace(const std::string& tracePath) {
  const auto loaded = loadWireTrace(tracePath);
  EXPECT_TRUE(loaded.ok()) << loaded.message;
  std::vector<Request> requests;
  for (const auto& record : loaded.records) {
    auto parsed = decodeRequest(record.payload);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    requests.push_back(std::move(*parsed.request));
  }
  return requests;
}

void replayInProcess(const std::vector<Request>& requests, int shards,
                     const qos::ReshapePolicy* policy,
                     std::vector<Decision>* decisions,
                     std::vector<Move>* moves) {
  qos::ShardedOptions options;
  options.shards = shards;
  qos::ShardedArbitrator arbitrator(32, options);
  arbitrator.attachReshapePolicy(policy);
  std::vector<qos::QualityMove> batch;
  for (const auto& request : requests) {
    if (request.command != Command::Negotiate) continue;
    const auto& payload = std::get<NegotiateRequest>(request.payload);
    const std::uint64_t jobId = arbitrator.reserveJobId();
    Time effective = payload.release;
    batch.clear();
    const auto outcome = arbitrator.submit(jobId, payload.spec,
                                           payload.release, &effective,
                                           &batch);
    for (const auto& move : batch) {
      moves->push_back({move.jobId, move.promotion, move.fromChain,
                        move.toChain, move.fromQuality, move.toQuality});
    }
    Decision decision;
    decision.admitted = outcome.admitted;
    decision.jobId = jobId;
    decision.release = effective;
    if (outcome.admitted) {
      decision.chainIndex = outcome.schedule.chainIndex;
      decision.quality = outcome.quality;
    }
    decisions->push_back(decision);
  }
}

void replayIntoFreshDaemon(const std::vector<Request>& requests, int shards,
                           const qos::ReshapePolicy* policy,
                           std::vector<Decision>* decisions,
                           std::vector<Move>* moves) {
  ServerConfig config;
  config.processors = 32;
  config.shards = shards;
  config.unixPath = socketPath("fresh" + std::to_string(shards));
  config.reshapePolicy = policy;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ClientConfig clientConfig;
  clientConfig.unixPath = config.unixPath;
  QoSAgentClient client(clientConfig);
  // Moves arrive as RESHAPED pushes; draining after every mutation keeps
  // the collected stream in submission order.
  const auto drain = [&] {
    for (const auto& event : client.drainReshapeEvents()) {
      moves->push_back({event.jobId, event.promotion, event.fromChain,
                        event.toChain, event.fromQuality, event.toQuality});
    }
  };
  for (const auto& request : requests) {
    if (request.command != Command::Negotiate) continue;
    const auto& payload = std::get<NegotiateRequest>(request.payload);
    const auto result = client.negotiate(payload.spec, payload.release);
    ASSERT_TRUE(result.ok()) << result.error.message;
    Decision decision;
    decision.admitted = result->admitted;
    decision.jobId = result->jobId;
    decision.chainIndex = result->chainIndex;
    decision.quality = result->quality;
    decision.release = result->release;
    decisions->push_back(decision);
    drain();
  }
  // Pushes precede any later response on the connection, so after one
  // more round trip every move is in.
  ASSERT_TRUE(client.stats().ok());
  drain();
  client.close();
  server.stop();
}

void expectIdentical(const std::vector<Decision>& sim,
                     const std::vector<Decision>& daemon,
                     const std::vector<Move>& simMoves,
                     const std::vector<Move>& daemonMoves) {
  ASSERT_EQ(sim.size(), daemon.size());
  for (std::size_t i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim[i].admitted, daemon[i].admitted) << "negotiate " << i;
    EXPECT_EQ(sim[i].jobId, daemon[i].jobId) << "negotiate " << i;
    EXPECT_EQ(sim[i].chainIndex, daemon[i].chainIndex) << "negotiate " << i;
    EXPECT_EQ(sim[i].quality, daemon[i].quality) << "negotiate " << i;
    EXPECT_EQ(sim[i].release, daemon[i].release) << "negotiate " << i;
  }
  ASSERT_EQ(simMoves.size(), daemonMoves.size());
  for (std::size_t i = 0; i < simMoves.size(); ++i) {
    EXPECT_EQ(simMoves[i].jobId, daemonMoves[i].jobId) << "move " << i;
    EXPECT_EQ(simMoves[i].promotion, daemonMoves[i].promotion) << "move " << i;
    EXPECT_EQ(simMoves[i].fromChain, daemonMoves[i].fromChain) << "move " << i;
    EXPECT_EQ(simMoves[i].toChain, daemonMoves[i].toChain) << "move " << i;
    EXPECT_EQ(simMoves[i].fromQuality, daemonMoves[i].fromQuality)
        << "move " << i;
    EXPECT_EQ(simMoves[i].toQuality, daemonMoves[i].toQuality)
        << "move " << i;
  }
}

class ElasticReplayEquivalence : public testing::TestWithParam<int> {};

TEST_P(ElasticReplayEquivalence, ElasticTraceReplaysDecisionAndMoveIdentical) {
  const int shards = GetParam();
  const elastic::Reshaper reshaper;
  const auto jobs = scenarioJobs("flash-crowd", 120);
  const std::string tracePath = testing::TempDir() + "elastic_equiv_" +
                                std::to_string(shards) + "_" +
                                std::to_string(::getpid()) + ".trace";
  recordTrace(tracePath, shards, &reshaper, jobs);

  const auto requests = decodeTrace(tracePath);
  ASSERT_EQ(requests.size(), jobs.size());

  std::vector<Decision> simDecisions;
  std::vector<Move> simMoves;
  replayInProcess(requests, shards, &reshaper, &simDecisions, &simMoves);
  std::vector<Decision> daemonDecisions;
  std::vector<Move> daemonMoves;
  replayIntoFreshDaemon(requests, shards, &reshaper, &daemonDecisions,
                        &daemonMoves);
  ASSERT_EQ(simDecisions.size(), jobs.size());
  expectIdentical(simDecisions, daemonDecisions, simMoves, daemonMoves);

  // Non-vacuity: the flash crowd must actually have triggered reshaping.
  EXPECT_FALSE(simMoves.empty());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ElasticReplayEquivalence,
                         testing::Values(1, 4));

// The multi-tenant floor golden pin: drive an undersized elastic server
// with the canonical gold/silver/bronze mix and track every job's quality
// through the reshape event stream.  No event — demotion or promotion —
// may leave a job below its tenant's contract floor, and the run must
// contain demotions for the pin to mean anything.
TEST(ElasticFloor, MultiTenantFloorsSurviveElasticReshaping) {
  auto params = workload::scenarioByName("multi-tenant", 97, 200);
  ASSERT_TRUE(params.has_value());
  const auto scenario = workload::ScenarioGenerator(*params).generate();
  ASSERT_FALSE(scenario.tenants.empty());

  const elastic::Reshaper reshaper;
  ServerConfig config;
  config.processors = 16;  // undersized: the mix must contend
  config.unixPath = socketPath("floors");
  config.reshapePolicy = &reshaper;
  NegotiationServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ClientConfig clientConfig;
  clientConfig.unixPath = config.unixPath;
  QoSAgentClient client(clientConfig);

  std::map<std::uint64_t, double> floorByJob;     // admitted jobs only
  std::map<std::uint64_t, double> qualityByJob;   // tracked through events
  std::size_t demotions = 0;
  const auto track = [&](const std::vector<ReshapeEvent>& events) {
    for (const auto& event : events) {
      ASSERT_TRUE(qualityByJob.contains(event.jobId)) << event.jobId;
      EXPECT_EQ(qualityByJob[event.jobId], event.fromQuality);
      qualityByJob[event.jobId] = event.toQuality;
      if (!event.promotion) ++demotions;
      // THE pin: no arbitrator-initiated move breaks a tenant contract.
      ASSERT_GE(event.toQuality, floorByJob[event.jobId])
          << (event.promotion ? "promotion" : "demotion") << " of job "
          << event.jobId;
    }
  };
  for (const auto& job : scenario.jobs) {
    const auto result = client.negotiate(job.spec, job.release);
    ASSERT_TRUE(result.ok()) << result.error.message;
    const double floor =
        job.tenant >= 0
            ? scenario.tenants[static_cast<std::size_t>(job.tenant)]
                  .qualityFloor
            : 0.0;
    if (result->admitted) {
      floorByJob[result->jobId] = floor;
      qualityByJob[result->jobId] = result->quality;
      // Static admission already honours the floor (the generator only
      // offers chains at or above it).
      ASSERT_GE(result->quality, floor) << "job " << result->jobId;
    }
    track(client.drainReshapeEvents());
    if (testing::Test::HasFatalFailure()) return;
  }
  // The VERIFY round trip is also the barrier after which every push of
  // the stream has been read.
  const auto verify = client.verify();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->ok) << verify->firstViolation;
  track(client.drainReshapeEvents());

  // Non-vacuous: the undersized machine forced real quality trades.
  EXPECT_GT(demotions, 0u);
  client.close();
  server.stop();
}

}  // namespace
}  // namespace tprm::service
