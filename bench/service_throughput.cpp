// Loopback throughput microbench for the negotiation service.
//
//   service_throughput --clients=8 --requests=200 --procs=64
//       --out=BENCH_service.json
//   service_throughput --shards=4 --deep --cancel-every=3 ...
//   service_throughput --sweep=1,2,4 --deep --cancel-every=3
//       --clients=8 --requests=3000 --out=BENCH_service.json
//   service_throughput --shards=1 --replay-verify
//
// Spins up an in-process NegotiationServer on a private Unix socket, then
// hammers it from N client threads, each issuing M NEGOTIATE requests over
// its own connection (one request in flight per connection, like a real QoS
// agent).  Reports aggregate request throughput, per-request latency
// percentiles (measured at the caller AND by the client metrics layer),
// and the server-side queue-wait distribution; writes the numbers as JSON
// for CI artifact upload.  --metrics-out additionally dumps the server's
// full observability snapshot (validated against docs/metrics_schema.json
// in CI).
//
// Workloads:
//  * default — a small two-chain spec: measures the wire + queue path, not
//    profile search depth;
//  * --deep — single-chain four-task jobs with far deadlines that never
//    retire, so the availability profile keeps growing and admission cost
//    is profile-bound.  This is the regime where sharding pays: each shard
//    scans a profile 1/K the size.  --cancel-every=N cancels every Nth
//    admitted job immediately, fragmenting the profile like real churn.
//
// Modes:
//  * --shards=K — serve through K arbitrator shards (default 1);
//  * --pipeline=W — drive each connection with a PipelinedClient holding
//    up to W negotiations in flight (0, the default, is the blocking
//    QoSAgentClient: one request per round trip, a window of 1).  Typed
//    BUSY rejections are retried with a short backoff and counted, on
//    either kind of client;
//  * --sweep=1,2,4 — run one leg per shard count over the same workload and
//    emit a "sweep" array (plus the speedup over the 1-shard leg).  With
//    --pipeline=W each shard count runs twice — a blocking leg and a
//    pipelined leg — and every pipelined row carries speedup_vs_blocking
//    against its same-shard blocking row;
//  * --require-speedup=X — with --sweep and --pipeline, exit nonzero
//    unless the pipelined leg at the last sweep point is at least X times
//    its blocking leg (the CI bench-smoke regression gate for the
//    pipelined path);
//  * --replay-verify — record every negotiation and, after the run, replay
//    each shard's jobs (jobId % K) in arrival order into a fresh in-process
//    QoSArbitrator of the shard's size, requiring bit-identical decisions.
//    Forces --cancel-every=0 (cancels are not order-stamped on the wire)
//    and, for K > 1, spill-off (a spilled job leaves its home shard's
//    replay).  With K=1 this is exactly the service-vs-unsharded
//    equivalence check from the roadmap.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>
#include <sys/resource.h>
#include <unistd.h>

#include "common/flags.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "qos/qos.h"
#include "service/client.h"
#include "service/server.h"
#include "taskmodel/chain.h"

namespace {

using Clock = std::chrono::steady_clock;

struct BenchOptions {
  int clients = 8;
  int requests = 200;
  int procs = 64;
  int shards = 1;
  bool spill = true;
  bool deep = false;
  int cancelEvery = 0;  // 0 = never cancel
  bool replayVerify = false;
  int pipeline = 0;  // 0 = blocking client; W > 0 = pipelined window W
};

tprm::task::TunableJobSpec lightSpec(int index) {
  using namespace tprm;
  task::TunableJobSpec job;
  job.name = "bench-" + std::to_string(index);
  task::Chain fast;
  fast.name = "fast";
  fast.tasks = {
      task::TaskSpec::rigid("a", 4, ticksFromUnits(5.0),
                            ticksFromUnits(40.0)),
      task::TaskSpec::rigid("b", 2, ticksFromUnits(10.0),
                            ticksFromUnits(80.0)),
  };
  task::Chain thin;
  thin.name = "thin";
  thin.tasks = {
      task::TaskSpec::rigid("a", 2, ticksFromUnits(10.0),
                            ticksFromUnits(60.0)),
      task::TaskSpec::rigid("b", 1, ticksFromUnits(20.0),
                            ticksFromUnits(100.0), /*quality=*/0.8),
  };
  job.chains = {fast, thin};
  return job;
}

/// Profile-bound workload: no job ever retires (far deadlines, release 0),
/// so admission cost grows with the number of live placements.  Varied
/// widths and fractional durations keep the availability step function
/// ragged — segments don't merge, every admission walks a prefix that keeps
/// growing.
tprm::task::TunableJobSpec deepSpec(int index) {
  using namespace tprm;
  task::TunableJobSpec job;
  job.name = "deep-" + std::to_string(index);
  task::Chain chain;
  chain.name = "only";
  for (int t = 0; t < 4; ++t) {
    chain.tasks.push_back(task::TaskSpec::rigid(
        "t" + std::to_string(t), 1 + ((index * 7 + t * 3) % 8),
        ticksFromUnits(3.0 + 0.25 * ((index * 13 + t * 5) % 64)),
        ticksFromUnits(1'000'000.0)));
  }
  job.chains = {chain};
  return job;
}

tprm::task::TunableJobSpec benchSpec(const BenchOptions& options, int index) {
  return options.deep ? deepSpec(index) : lightSpec(index);
}

double percentile(std::vector<double>& sortedMicros, double p) {
  if (sortedMicros.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sortedMicros.size() - 1));
  return sortedMicros[rank];
}

struct LegResult {
  int shards = 1;
  double completed = 0;
  double elapsedSec = 0;
  double requestsPerSecond = 0;
  double p50 = 0, p95 = 0, p99 = 0, pMax = 0;
  double queueWaitP50 = 0, queueWaitP95 = 0, queueWaitP99 = 0,
         queueWaitMax = 0;
  double executeP50 = 0, executeP95 = 0, executeP99 = 0;
  double e2eP50 = 0, e2eP95 = 0, e2eP99 = 0, e2eMean = 0;
  /// Voluntary context switches of the whole process (clients and the
  /// in-process server) over the request storm, per completed request.
  double voluntarySwitchesPerRequest = 0;
  std::uint64_t admitted = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t spills = 0;
  std::uint64_t busyRetries = 0;
  std::string wire = "blocking";  // or "pipelined"
  int window = 0;  // in-flight window per connection (0 = blocking)
  bool ledgerOk = false;
  bool complete = false;
  bool replayOk = true;  // trivially true when --replay-verify is off
};

/// ru_nvcsw of the whole process: every blocking wait (futex, recv, poll)
/// that gave up the CPU counts once.
long voluntaryContextSwitches() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

struct ObservedNegotiation {
  int specIndex = 0;
  tprm::service::NegotiateResult result;
};

/// Replays each shard's negotiations (jobId % K, arrival order) into a
/// fresh in-process arbitrator of the shard's size and compares every
/// decision field the wire carries.
bool replayMatches(const BenchOptions& options,
                   std::vector<ObservedNegotiation> observed) {
  using namespace tprm;
  std::sort(observed.begin(), observed.end(),
            [](const ObservedNegotiation& a, const ObservedNegotiation& b) {
              return a.result.arrivalSeq < b.result.arrivalSeq;
            });
  const int k = options.shards;
  bool allOk = true;
  for (int shard = 0; shard < k; ++shard) {
    const int shardProcs = options.procs / k + (shard < options.procs % k);
    qos::QoSArbitrator replay(shardProcs);
    for (const auto& o : observed) {
      if (static_cast<int>(o.result.jobId % static_cast<std::uint64_t>(k)) !=
          shard) {
        continue;
      }
      const auto decision =
          replay.submit(benchSpec(options, o.specIndex), o.result.release);
      bool match = decision.admitted == o.result.admitted;
      if (match && decision.admitted) {
        match = decision.schedule.chainIndex == o.result.chainIndex &&
                decision.quality == o.result.quality &&
                decision.schedule.placements == o.result.placements;
      }
      if (!match) {
        std::fprintf(stderr,
                     "replay-verify: decision mismatch at jobId %llu "
                     "(shard %d)\n",
                     static_cast<unsigned long long>(o.result.jobId), shard);
        allOk = false;
      }
    }
    const auto report = replay.verify();
    if (!report.ok) {
      std::fprintf(stderr, "replay-verify: shard %d ledger: %s\n", shard,
                   report.firstViolation.c_str());
      allOk = false;
    }
  }
  return allOk;
}

LegResult runLeg(const BenchOptions& options,
                 const std::string& metricsOutPath) {
  using namespace tprm;
  LegResult leg;
  leg.shards = options.shards;
  leg.wire = options.pipeline > 0 ? "pipelined" : "blocking";
  leg.window = options.pipeline;

  service::ServerConfig serverConfig;
  serverConfig.processors = options.procs;
  serverConfig.shards = options.shards;
  serverConfig.shardSpill = options.spill;
  serverConfig.unixPath = "/tmp/tprm-bench-" + std::to_string(::getpid()) +
                          "-" + std::to_string(options.shards) + ".sock";
  service::NegotiationServer server(serverConfig);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "service_throughput: %s\n", error.c_str());
    return leg;
  }

  const int clients = options.clients;
  const int requests = options.requests;
  std::vector<std::vector<double>> latenciesMicros(
      static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> admittedPerClient(
      static_cast<std::size_t>(clients), 0);
  std::vector<std::uint64_t> cancelledPerClient(
      static_cast<std::size_t>(clients), 0);
  std::vector<std::uint64_t> busyRetriesPerClient(
      static_cast<std::size_t>(clients), 0);
  std::vector<std::vector<ObservedNegotiation>> observedPerClient(
      static_cast<std::size_t>(clients));
  // One registry shared by every client thread: the "client.request_us"
  // histogram aggregates the end-to-end latency across all of them.
  obs::MetricsRegistry clientRegistry;
  std::vector<std::thread> threads;
  const long switchesBefore = voluntaryContextSwitches();
  const auto begin = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      service::ClientConfig clientConfig;
      clientConfig.unixPath = serverConfig.unixPath;
      clientConfig.metrics = &clientRegistry;
      auto& latencies = latenciesMicros[static_cast<std::size_t>(c)];
      latencies.reserve(static_cast<std::size_t>(requests));

      if (options.pipeline > 0) {
        // Pipelined leg: one PipelinedClient per connection with up
        // to `pipeline` negotiations in flight.  Latency is measured from
        // submit to in-order harvest, so it includes pipeline queuing —
        // exactly what a windowed QoS agent observes end to end.
        service::PipelinedClient client(
            clientConfig, static_cast<std::uint32_t>(options.pipeline),
            /*corked=*/true);
        if (auto connectError = client.connect()) {
          std::fprintf(stderr, "client %d: connect failed: %s\n", c,
                       connectError->message.c_str());
          return;
        }
        auto& e2e = obs::latencyHistogram(clientRegistry, "client.request_us");
        struct InFlight {
          int specIndex = 0;
          Clock::time_point t0;
          service::PipelinedClient::ResponseFuture future;
        };
        std::deque<InFlight> inflight;
        std::vector<service::PipelinedClient::ResponseFuture> cancelFutures;
        std::uint64_t admitted = 0;
        std::uint64_t busyRetries = 0;
        bool failed = false;
        const auto harvest = [&](InFlight item) {
          // Corked client: everything submitted so far must hit the wire
          // before blocking on a response.
          (void)client.flush();
          auto response = item.future.get();
          auto t1 = Clock::now();
          while (!response.ok() &&
                 response.error.status == service::ClientStatus::Busy) {
            // Typed backpressure (window exceeded or shard queue full):
            // back off briefly and resubmit the same spec.
            ++busyRetries;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            auto retry =
                client.negotiateAsync(benchSpec(options, item.specIndex), 0);
            (void)client.flush();
            response = retry.get();
            t1 = Clock::now();
          }
          auto decision = service::extractResult<service::NegotiateResult>(
              std::move(response));
          if (!decision.ok()) {
            std::fprintf(stderr, "client %d: pipelined negotiate failed: %s\n",
                         c, decision.error.message.c_str());
            failed = true;
            return;
          }
          const double us =
              std::chrono::duration<double, std::micro>(t1 - item.t0).count();
          latencies.push_back(us);
          e2e.record(us);
          if (options.replayVerify) {
            observedPerClient[static_cast<std::size_t>(c)].push_back(
                {item.specIndex, *decision});
          }
          if (decision->admitted) {
            ++admitted;
            if (options.cancelEvery > 0 &&
                admitted % static_cast<std::uint64_t>(options.cancelEvery) ==
                    0) {
              cancelFutures.push_back(client.cancelAsync(decision->jobId));
            }
          }
        };
        for (int r = 0; r < requests && !failed; ++r) {
          const int specIndex = c * requests + r;
          const auto spec = benchSpec(options, specIndex);
          InFlight item;
          item.specIndex = specIndex;
          item.t0 = Clock::now();
          item.future = client.negotiateAsync(spec, /*release=*/0);
          inflight.push_back(std::move(item));
          while (!failed &&
                 inflight.size() >=
                     static_cast<std::size_t>(options.pipeline)) {
            harvest(std::move(inflight.front()));
            inflight.pop_front();
          }
        }
        while (!failed && !inflight.empty()) {
          harvest(std::move(inflight.front()));
          inflight.pop_front();
        }
        (void)client.flush();
        for (auto& future : cancelFutures) {
          auto cancelled = service::extractResult<service::CancelResult>(
              future.get());
          if (cancelled.ok() && cancelled->freedTicks > 0) {
            ++cancelledPerClient[static_cast<std::size_t>(c)];
          }
        }
        admittedPerClient[static_cast<std::size_t>(c)] = admitted;
        busyRetriesPerClient[static_cast<std::size_t>(c)] = busyRetries;
        client.close();
        return;
      }

      service::QoSAgentClient client(clientConfig);
      std::uint64_t admitted = 0;
      std::uint64_t busyRetries = 0;
      for (int r = 0; r < requests; ++r) {
        const int specIndex = c * requests + r;
        const auto spec = benchSpec(options, specIndex);
        const auto t0 = Clock::now();
        auto decision = client.negotiate(spec, /*release=*/0);
        while (!decision.ok() &&
               decision.error.status == service::ClientStatus::Busy) {
          ++busyRetries;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          decision = client.negotiate(spec, /*release=*/0);
        }
        const auto t1 = Clock::now();
        if (!decision.ok()) {
          std::fprintf(stderr, "client %d: negotiate failed: %s\n", c,
                       decision.error.message.c_str());
          return;
        }
        latencies.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (options.replayVerify) {
          observedPerClient[static_cast<std::size_t>(c)].push_back(
              {specIndex, *decision});
        }
        if (decision->admitted) {
          ++admitted;
          if (options.cancelEvery > 0 &&
              admitted % static_cast<std::uint64_t>(options.cancelEvery) ==
                  0) {
            const auto cancelled = client.cancel(decision->jobId);
            if (cancelled.ok() && cancelled->freedTicks > 0) {
              ++cancelledPerClient[static_cast<std::size_t>(c)];
            }
          }
        }
      }
      admittedPerClient[static_cast<std::size_t>(c)] = admitted;
      busyRetriesPerClient[static_cast<std::size_t>(c)] = busyRetries;
    });
  }
  for (auto& thread : threads) thread.join();
  leg.elapsedSec = std::chrono::duration<double>(Clock::now() - begin).count();
  const long switches = voluntaryContextSwitches() - switchesBefore;

  // A VERIFY after the storm: the bench doubles as a stress check.
  service::ClientConfig verifyConfig;
  verifyConfig.unixPath = serverConfig.unixPath;
  service::QoSAgentClient verifier(verifyConfig);
  const auto verify = verifier.verify();
  leg.ledgerOk = verify.ok() && verify->ok;
  verifier.close();

  // Observability-layer views of the same run: the server's queue-wait
  // distribution (worker pickup delay) and the client metrics layer's
  // end-to-end latency (cross-check against the manual timing).
  auto& queueWait =
      obs::latencyHistogram(*server.metricsRegistry(), "server.queue_wait_us");
  auto& executeTime =
      obs::latencyHistogram(*server.metricsRegistry(), "server.execute_us");
  auto& clientLatency =
      obs::latencyHistogram(clientRegistry, "client.request_us");
  leg.queueWaitP50 = queueWait.quantile(0.50);
  leg.queueWaitP95 = queueWait.quantile(0.95);
  leg.queueWaitP99 = queueWait.quantile(0.99);
  leg.queueWaitMax = queueWait.max();
  leg.executeP50 = executeTime.quantile(0.50);
  leg.executeP95 = executeTime.quantile(0.95);
  leg.executeP99 = executeTime.quantile(0.99);
  leg.e2eP50 = clientLatency.quantile(0.50);
  leg.e2eP95 = clientLatency.quantile(0.95);
  leg.e2eP99 = clientLatency.quantile(0.99);
  leg.e2eMean = clientLatency.mean();
  if (!metricsOutPath.empty()) {
    std::ofstream out(metricsOutPath);
    out << server.observabilitySnapshot().dump() << "\n";
    std::printf("wrote %s\n", metricsOutPath.c_str());
  }
  leg.spills = server.arbitrator().spillCount();
  server.stop();

  std::vector<double> all;
  for (const auto& latencies : latenciesMicros) {
    all.insert(all.end(), latencies.begin(), latencies.end());
  }
  std::sort(all.begin(), all.end());
  for (const auto count : admittedPerClient) leg.admitted += count;
  for (const auto count : cancelledPerClient) leg.cancelled += count;
  for (const auto count : busyRetriesPerClient) leg.busyRetries += count;
  leg.completed = static_cast<double>(all.size());
  if (!all.empty()) {
    leg.voluntarySwitchesPerRequest =
        static_cast<double>(switches) / leg.completed;
  }
  leg.requestsPerSecond = leg.completed / leg.elapsedSec;
  leg.p50 = percentile(all, 0.50);
  leg.p95 = percentile(all, 0.95);
  leg.p99 = percentile(all, 0.99);
  leg.pMax = all.empty() ? 0.0 : all.back();
  leg.complete = all.size() == static_cast<std::size_t>(clients) *
                                   static_cast<std::size_t>(requests);

  if (options.replayVerify) {
    std::vector<ObservedNegotiation> observed;
    for (auto& perClient : observedPerClient) {
      observed.insert(observed.end(), perClient.begin(), perClient.end());
    }
    leg.replayOk = replayMatches(options, std::move(observed));
    std::printf("replay-verify (%d shard%s): %s\n", options.shards,
                options.shards == 1 ? "" : "s",
                leg.replayOk ? "decisions identical" : "MISMATCH");
  }

  std::printf("shards=%d clients=%d requests/client=%d procs=%d%s wire=%s",
              options.shards, clients, requests, options.procs,
              options.deep ? " deep" : "", leg.wire.c_str());
  if (leg.window > 0) std::printf(" window=%d", leg.window);
  if (leg.busyRetries > 0) {
    std::printf(" busy_retries=%llu",
                static_cast<unsigned long long>(leg.busyRetries));
  }
  std::printf("\n");
  std::printf("completed %.0f requests in %.3f s  (%.0f req/s)\n",
              leg.completed, leg.elapsedSec, leg.requestsPerSecond);
  std::printf("latency us: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n", leg.p50,
              leg.p95, leg.p99, leg.pMax);
  std::printf("queue wait us: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
              leg.queueWaitP50, leg.queueWaitP95, leg.queueWaitP99,
              leg.queueWaitMax);
  std::printf("execute us: p50=%.1f p95=%.1f p99=%.1f\n", leg.executeP50,
              leg.executeP95, leg.executeP99);
  std::printf("voluntary context switches per request: %.2f\n",
              leg.voluntarySwitchesPerRequest);
  std::printf("admitted %llu / %.0f (cancelled %llu, spilled %llu), "
              "ledger %s\n",
              static_cast<unsigned long long>(leg.admitted), leg.completed,
              static_cast<unsigned long long>(leg.cancelled),
              static_cast<unsigned long long>(leg.spills),
              leg.ledgerOk ? "consistent" : "VIOLATED");
  return leg;
}

void legToJson(const LegResult& leg, tprm::JsonValue::Object& doc) {
  doc["shards"] = leg.shards;
  doc["wire"] = leg.wire;
  doc["window"] = leg.window;
  doc["busy_retries"] = static_cast<std::int64_t>(leg.busyRetries);
  doc["completed_requests"] = leg.completed;
  doc["elapsed_seconds"] = leg.elapsedSec;
  doc["requests_per_second"] = leg.requestsPerSecond;
  doc["latency_us_p50"] = leg.p50;
  doc["latency_us_p95"] = leg.p95;
  doc["latency_us_p99"] = leg.p99;
  doc["latency_us_max"] = leg.pMax;
  doc["queue_wait_us_p50"] = leg.queueWaitP50;
  doc["queue_wait_us_p95"] = leg.queueWaitP95;
  doc["queue_wait_us_p99"] = leg.queueWaitP99;
  doc["queue_wait_us_max"] = leg.queueWaitMax;
  doc["execute_us_p50"] = leg.executeP50;
  doc["execute_us_p95"] = leg.executeP95;
  doc["execute_us_p99"] = leg.executeP99;
  doc["e2e_latency_us_p50"] = leg.e2eP50;
  doc["e2e_latency_us_p95"] = leg.e2eP95;
  doc["e2e_latency_us_p99"] = leg.e2eP99;
  doc["e2e_latency_us_mean"] = leg.e2eMean;
  doc["voluntary_switches_per_request"] = leg.voluntarySwitchesPerRequest;
  doc["admitted"] = static_cast<std::int64_t>(leg.admitted);
  doc["cancelled"] = static_cast<std::int64_t>(leg.cancelled);
  doc["spilled"] = static_cast<std::int64_t>(leg.spills);
  doc["ledger_consistent"] = leg.ledgerOk;
}

std::vector<int> parseSweep(const std::string& sweep) {
  std::vector<int> shardCounts;
  std::size_t pos = 0;
  while (pos < sweep.size()) {
    const auto comma = sweep.find(',', pos);
    const auto token = sweep.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!token.empty()) shardCounts.push_back(std::stoi(token));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return shardCounts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tprm;
  const Flags flags(argc, argv);
  const auto unknown = flags.unknownAgainst(
      {"clients", "requests", "procs", "out", "metrics-out", "shards",
       "sweep", "no-spill", "deep", "cancel-every", "replay-verify",
       "pipeline", "require-speedup"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "service_throughput: unknown flag --%s\n",
                 unknown.front().c_str());
    return 2;
  }
  BenchOptions options;
  options.clients = static_cast<int>(flags.getInt("clients", 8));
  options.requests = static_cast<int>(flags.getInt("requests", 200));
  options.procs = static_cast<int>(flags.getInt("procs", 64));
  options.shards = static_cast<int>(flags.getInt("shards", 1));
  options.spill = !flags.getBool("no-spill", false);
  options.deep = flags.getBool("deep", false);
  options.cancelEvery = static_cast<int>(flags.getInt("cancel-every", 0));
  options.replayVerify = flags.getBool("replay-verify", false);
  options.pipeline = static_cast<int>(flags.getInt("pipeline", 0));
  if (options.pipeline < 0) {
    std::fprintf(stderr, "service_throughput: --pipeline must be >= 0\n");
    return 2;
  }
  const double requireSpeedup = flags.getDouble("require-speedup", 0.0);
  const std::string outPath = flags.getString("out", "");
  const std::string metricsOutPath = flags.getString("metrics-out", "");
  const std::string sweep = flags.getString("sweep", "");

  if (options.replayVerify) {
    // Cancels are not order-stamped on the wire, and a spilled job leaves
    // its home shard's replay — both would make the replay non-reproducible.
    options.cancelEvery = 0;
    if (options.shards > 1) options.spill = false;
  }

  if (requireSpeedup > 0 && (sweep.empty() || options.pipeline <= 0)) {
    std::fprintf(stderr,
                 "service_throughput: --require-speedup needs --sweep and "
                 "--pipeline\n");
    return 2;
  }

  if (!sweep.empty()) {
    const auto shardCounts = parseSweep(sweep);
    if (shardCounts.empty()) {
      std::fprintf(stderr, "service_throughput: bad --sweep list\n");
      return 2;
    }
    // With --pipeline, each shard count runs a blocking leg and a pipelined
    // leg back to back over the same workload; without it the sweep is a
    // blocking-only shard scan.
    std::vector<LegResult> legs;
    bool ok = true;
    for (const int k : shardCounts) {
      auto legOptions = options;
      legOptions.shards = k;
      // The per-leg metrics snapshot would only keep the last leg; emit the
      // sweep numbers instead and leave --metrics-out to single-run mode.
      if (options.pipeline > 0) {
        auto blockingOptions = legOptions;
        blockingOptions.pipeline = 0;
        legs.push_back(runLeg(blockingOptions, ""));
        ok = ok && legs.back().ledgerOk && legs.back().complete &&
             legs.back().replayOk;
        std::printf("\n");
      }
      legs.push_back(runLeg(legOptions, ""));
      ok = ok && legs.back().ledgerOk && legs.back().complete &&
           legs.back().replayOk;
      std::printf("\n");
    }
    // Per-wire 1-shard baselines: a leg's speedup_vs_1_shard compares
    // against the same wire, so sharding scaling and pipelining gains stay
    // separable in the artifact.
    const auto findLeg = [&legs](int shards, int window) -> const LegResult* {
      for (const auto& leg : legs) {
        if (leg.shards == shards && leg.window == window) return &leg;
      }
      return nullptr;
    };
    JsonValue::Object doc;
    doc["bench"] = "service_throughput";
    doc["mode"] = "sweep";
    doc["clients"] = options.clients;
    doc["requests_per_client"] = options.requests;
    doc["processors"] = options.procs;
    doc["deep_workload"] = options.deep;
    doc["cancel_every"] = options.cancelEvery;
    doc["pipeline_window"] = options.pipeline;
    double lastSpeedupVsBlocking = 0;
    JsonValue::Array sweepArray;
    for (const auto& leg : legs) {
      JsonValue::Object legDoc;
      legToJson(leg, legDoc);
      const LegResult* base = findLeg(1, leg.window);
      if (base != nullptr && base->requestsPerSecond > 0) {
        legDoc["speedup_vs_1_shard"] =
            leg.requestsPerSecond / base->requestsPerSecond;
      }
      if (leg.window > 0) {
        const LegResult* blocking = findLeg(leg.shards, 0);
        if (blocking != nullptr && blocking->requestsPerSecond > 0) {
          lastSpeedupVsBlocking =
              leg.requestsPerSecond / blocking->requestsPerSecond;
          legDoc["speedup_vs_blocking"] = lastSpeedupVsBlocking;
        }
      }
      sweepArray.push_back(JsonValue(std::move(legDoc)));
    }
    doc["sweep"] = JsonValue(std::move(sweepArray));
    for (const auto& leg : legs) {
      const LegResult* base = findLeg(1, leg.window);
      const LegResult* blocking = findLeg(leg.shards, 0);
      std::printf("shards=%d wire=%s: %.0f req/s", leg.shards,
                  leg.wire.c_str(), leg.requestsPerSecond);
      if (base != nullptr && base->requestsPerSecond > 0) {
        std::printf(" (%.2fx vs 1 shard)",
                    leg.requestsPerSecond / base->requestsPerSecond);
      }
      if (leg.window > 0 && blocking != nullptr &&
          blocking->requestsPerSecond > 0) {
        std::printf(" (%.2fx vs blocking)",
                    leg.requestsPerSecond / blocking->requestsPerSecond);
      }
      std::printf("\n");
    }
    if (!outPath.empty()) {
      std::ofstream out(outPath);
      out << JsonValue(std::move(doc)).dump() << "\n";
      std::printf("wrote %s\n", outPath.c_str());
    }
    if (requireSpeedup > 0 && lastSpeedupVsBlocking < requireSpeedup) {
      std::fprintf(stderr,
                   "service_throughput: pipelined speedup %.2fx at the last "
                   "sweep point is below the required %.2fx\n",
                   lastSpeedupVsBlocking, requireSpeedup);
      ok = false;
    }
    return ok ? 0 : 1;
  }

  const auto leg = runLeg(options, metricsOutPath);
  if (!outPath.empty()) {
    JsonValue::Object doc;
    doc["bench"] = "service_throughput";
    doc["clients"] = options.clients;
    doc["requests_per_client"] = options.requests;
    doc["processors"] = options.procs;
    doc["deep_workload"] = options.deep;
    doc["replay_verified"] = options.replayVerify && leg.replayOk;
    legToJson(leg, doc);
    std::ofstream out(outPath);
    out << JsonValue(std::move(doc)).dump() << "\n";
    std::printf("wrote %s\n", outPath.c_str());
  }

  // Completing every request (and, when asked, an exact replay) is part of
  // the pass criterion.
  return (leg.ledgerOk && leg.complete && leg.replayOk) ? 0 : 1;
}
