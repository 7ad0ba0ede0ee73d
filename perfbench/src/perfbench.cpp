// perfbench: the repository's end-to-end benchmark.
//
//   tprm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --scratch <dir>
//
// One run measures one workload for about --seconds seconds as a sequence
// of rounds.  A round sets up from scratch (generates the seeded stream,
// starts a daemon or an arbitrator, connects, warms up; in-process rounds
// after the first few reuse the stream) and then pushes the whole fixed
// stream through, so every round does the same work and the run reports
// means over rounds.  Workloads, metrics and sizing are documented in
// perfbench/README.md.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1.  Every round is checked (VERIFY or
// verify(), decisions identical across rounds, the client's final
// placements against the arbitrator's ledger); a failed check exits 1 and
// prints no metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "elastic/reshaper.h"
#include "metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qos/sharded.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using tprm::Time;
using tprm::sched::TaskPlacement;

/// Saturating-leg window: requests in flight on the one connection.
constexpr std::uint32_t kWindow = 32;
/// STATS round trips after HELLO, before the first timed request.
constexpr int kWarmupRoundTrips = 64;
/// A cancel targets the job negotiated this many positions earlier, so its
/// decision has been harvested in either leg before the cancel is sent.
constexpr std::size_t kCancelLag = 2 * kWindow;
/// Share (percent) of stream positions followed by a cancel.
constexpr std::uint64_t kCancelPercent = 25;
/// Rounds of each kind a run makes at least, however short --seconds is.
constexpr int kMinRoundsPerKind = 2;
/// In-process rounds that set up from scratch (see InprocRounds).
constexpr int kInprocSetups = 5;

/// A failed correctness check: the run stops and prints no metrics.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

std::int64_t nowNs() { return tprm::obs::monotonicNanos(); }

double secondsBetween(std::int64_t begin, std::int64_t end) {
  return static_cast<double>(end - begin) / 1e9;
}

double microsBetween(std::int64_t begin, std::int64_t end) {
  return static_cast<double>(end - begin) / 1e3;
}

// --- workloads ---------------------------------------------------------

struct Workload {
  const char* name;
  /// Negotiated over the wire with an embedded daemon (else in-process).
  bool wire;
  /// Scenario family the stream is drawn from.
  const char* scenario;
  std::size_t jobs;
  /// Multiplier on the family's arrival rate.
  double rateScale;
  int processors;
  int shards;
  /// Elastic::Reshaper attached, with cancels interleaved.
  bool elastic;
  /// Give the stream the canonical tenant quality floors (see
  /// applyTenantFloors).
  bool tenantFloors;
};

// The why of each workload is in perfbench/README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"wire-static", true, "multi-tenant", 6000, 1.0, 32, 1, false, false},
    {"wire-elastic", true, "flash-crowd", 6000, 1.0, 32, 1, true, false},
    {"inproc-sharded", false, "heavy-tailed", 100000, 2.0, 40, 4, false,
     true},
};

const Workload& workloadByName(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Gives every job a tenant of the canonical gold/silver/bronze mix and
/// drops the chains below that tenant's floor, as the multi-tenant family
/// does.  Gold jobs keep only their full-width chain, which is what makes
/// a job too wide for any one shard and so gang-eligible.
void applyTenantFloors(tprm::workload::Scenario& scenario,
                       std::uint64_t seed) {
  scenario.tenants = tprm::workload::defaultTenants();
  double totalWeight = 0.0;
  for (const auto& tenant : scenario.tenants) totalWeight += tenant.weight;
  tprm::Rng rng(tprm::streamSeed(seed, 0x7e1a47));
  for (auto& job : scenario.jobs) {
    double pick = rng.uniform01() * totalWeight;
    std::size_t chosen = scenario.tenants.size() - 1;
    for (std::size_t k = 0; k < scenario.tenants.size(); ++k) {
      pick -= scenario.tenants[k].weight;
      if (pick <= 0.0) {
        chosen = k;
        break;
      }
    }
    job.tenant = static_cast<int>(chosen);
    const double floor = scenario.tenants[chosen].qualityFloor;
    auto& chains = job.spec.chains;
    chains.erase(std::remove_if(chains.begin() + 1, chains.end(),
                                [floor](const tprm::task::Chain& chain) {
                                  return chain.quality() < floor;
                                }),
                 chains.end());
  }
}

tprm::workload::Scenario generateStream(const Workload& w,
                                        std::uint64_t seed) {
  auto params = tprm::workload::scenarioByName(w.scenario, seed, w.jobs);
  check(params.has_value(), std::string("no scenario ") + w.scenario);
  params->baseRate *= w.rateScale;
  auto scenario = tprm::workload::ScenarioGenerator(*params).generate();
  if (w.tenantFloors) applyTenantFloors(scenario, seed);
  return scenario;
}

/// True when the stream position `i` is followed by a cancel.
bool cancelAfter(std::uint64_t seed, std::size_t i) {
  if (i < kCancelLag) return false;
  return tprm::streamSeed(seed, static_cast<std::uint64_t>(i)) % 100 <
         kCancelPercent;
}

// --- decision fingerprints ---------------------------------------------

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::vector<TaskPlacement>& placements) {
    add(static_cast<std::uint64_t>(placements.size()));
    for (const auto& p : placements) {
      add(static_cast<std::uint64_t>(p.interval.begin));
      add(static_cast<std::uint64_t>(p.interval.end));
      add(static_cast<std::uint64_t>(p.processors));
    }
  }
  void addDecision(std::uint64_t jobId, bool admitted, std::size_t chain,
                   double quality, const std::vector<TaskPlacement>& p) {
    add(jobId);
    add(static_cast<std::uint64_t>(admitted));
    if (!admitted) return;
    add(static_cast<std::uint64_t>(chain));
    add(quality);
    add(p);
  }
  void addMove(std::uint64_t jobId, bool promotion, std::size_t toChain,
               double toQuality, const std::vector<TaskPlacement>& p) {
    add(jobId);
    add(static_cast<std::uint64_t>(promotion));
    add(static_cast<std::uint64_t>(toChain));
    add(toQuality);
    add(p);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// --- spans ---------------------------------------------------------------

/// In-memory span log of a traced run, written out as JSON lines at the
/// end.  Spans are placed by the benchmark around its own calls into each
/// layer; the daemon's own command spans are copied in from its trace ring.
class SpanLog {
 public:
  /// Spans kept for the file; later ones still get ids but are not stored,
  /// which bounds the file of a long traced run.
  static constexpr std::size_t kMaxKept = 200'000;

  std::uint64_t add(const char* name, std::int64_t begin, std::int64_t end,
                    std::uint64_t parent, std::uint64_t requestId) {
    if (spans_.size() < kMaxKept) {
      spans_.push_back(Span{name, begin, end, parent, requestId});
    }
    return ++count_;  // ids start at 1; 0 means "no parent"
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    check(static_cast<bool>(out), "cannot write trace " + path);
    std::uint64_t id = 0;
    for (const auto& span : spans_) {
      ++id;
      out << "{\"id\":" << id << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << span.begin << ",\"end_ns\":" << span.end
          << ",\"parent\":" << span.parent
          << ",\"request_id\":" << span.requestId << "}\n";
    }
    check(static_cast<bool>(out), "short write to trace " + path);
  }

 private:
  struct Span {
    const char* name;
    std::int64_t begin;
    std::int64_t end;
    std::uint64_t parent;
    std::uint64_t requestId;
  };
  std::vector<Span> spans_;
  std::uint64_t count_ = 0;
};

/// Per-layer samples a traced run collects across its rounds.
struct LayerSamples {
  SpanLog spans;
  std::vector<double> generateS;
  std::vector<double> encodeRequestUs, decodeRequestUs;
  std::vector<double> encodeResponseUs, decodeResponseUs;
  std::vector<double> requestBytes, responseBytes;
  std::vector<double> roundtripUs, queueWaitUs, executeUs, overheadUs;
  std::vector<double> submitUs, cancelUs;
  std::vector<double> tracedLegS, untracedLegS;
  std::vector<double> profileSegments;
  std::uint64_t busyRejections = 0;
  std::uint64_t reshapePushes = 0;
  /// obs registry snapshot of the last traced in-process pass, with the
  /// operations it made and its final ledger size.
  tprm::JsonValue arbitratorSnapshot;
  std::uint64_t arbitratorOps = 0;
  std::uint64_t arbitratorSubmits = 0;
  std::uint64_t arbitratorLedgerEntries = 0;
  /// Daemon arbitrator counters the in-process replay must reproduce.
  std::map<std::string, double> daemonCounts;
};

/// Arbitrator counters that must read the same in the daemon and in the
/// in-process replay of its stream.
constexpr const char* kCrossCheckedCounters[] = {
    ".negotiations", ".admitted", ".cancels", ".elastic.demotions",
    ".elastic.promotions"};

// --- rounds --------------------------------------------------------------

/// One command of a wire stream, in send order.
struct Op {
  bool cancel = false;
  /// Negotiate: stream index of the job.  Cancel: stream index of the last
  /// job negotiated before it (its release is the arbitrator clock).
  std::size_t job = 0;
  /// Cancel: the target's job id.
  std::uint64_t jobId = 0;
};

struct RoundResult {
  /// The round set up from scratch, so setupS is a whole set-up.
  bool setUp = true;
  double setupS = 0.0;
  double generateS = 0.0;
  double legS = 0.0;
  std::vector<double> latencyUs;
  std::uint64_t decisions = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string firstError;
  Fingerprint decisionHash;
  Fingerprint moveHash;
  std::uint64_t moves = 0;
  JobBook book;
  std::vector<Op> ops;
};

void fail(RoundResult& r, const std::string& what) {
  ++r.failed;
  if (r.firstError.empty()) r.firstError = what;
}

/// Sums every counter of `snapshot` whose name ends in `suffix` (per-shard
/// bundles repeat the same suffix under different prefixes).
double counterSum(const tprm::JsonValue& snapshot, const std::string& suffix) {
  double sum = 0.0;
  const auto* counters = snapshot.find("counters");
  if (counters == nullptr) return 0.0;
  for (const auto& [name, value] : counters->asObject()) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value.asNumber();
    }
  }
  return sum;
}

/// Pushes `ops` (or, when empty, every job of the stream) through a fresh
/// in-process arbitrator, timing each submit and cancel.  Used as the
/// inproc-sharded round and as the traced run's replay of a wire round.
RoundResult runInProcess(const Workload& w,
                         const tprm::workload::Scenario& scenario,
                         const std::vector<Op>& ops, LayerSamples* layers) {
  RoundResult r;
  const std::int64_t entry = nowNs();
  const tprm::elastic::Reshaper reshaper(
      tprm::elastic::VictimPolicy::MinQualityLoss);
  tprm::qos::ShardedOptions options;
  options.shards = w.shards;
  options.spill = true;
  options.gang = w.shards > 1;
  tprm::qos::ShardedArbitrator arbitrator(w.processors, options);
  if (w.elastic) arbitrator.attachReshapePolicy(&reshaper);

  tprm::obs::MetricsRegistry registry;
  std::vector<tprm::obs::NegotiationMetrics> bundles;
  std::optional<tprm::obs::ShardedMetrics> sharded;
  if (layers != nullptr) {
    for (int k = 0; k < w.shards; ++k) {
      bundles.push_back(tprm::obs::NegotiationMetrics::fromRegistry(
          registry, "arbitrator.shard" + std::to_string(k)));
    }
    std::vector<tprm::obs::NegotiationMetrics*> perShard;
    for (auto& bundle : bundles) perShard.push_back(&bundle);
    if (w.shards > 1) {
      sharded = tprm::obs::ShardedMetrics::fromRegistry(registry, "sharded");
    }
    arbitrator.attachMetrics(std::move(perShard),
                             sharded ? &*sharded : nullptr);
  }

  std::vector<Op> all;
  const std::vector<Op>* plan = &ops;
  if (ops.empty()) {
    all.resize(scenario.jobs.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i].job = i;
    plan = &all;
  }

  // The timed loop only calls the arbitrator and keeps what it returned;
  // the bookkeeping that checks and scores it runs after the leg.
  struct Outcome {
    std::uint64_t jobId = 0;
    tprm::sched::AdmissionDecision decision;
    Time clock = 0;
    std::int64_t freed = 0;
    std::vector<tprm::qos::QualityMove> moves;
  };
  std::vector<Outcome> outcomes(plan->size());
  r.latencyUs.reserve(plan->size());
  double segments = 0.0;
  const std::int64_t legStart = nowNs();
  r.setupS = secondsBetween(entry, legStart);
  for (std::size_t k = 0; k < plan->size(); ++k) {
    const Op& op = (*plan)[k];
    Outcome& out = outcomes[k];
    auto* moves = w.elastic ? &out.moves : nullptr;
    if (!op.cancel) {
      const auto& job = scenario.jobs[op.job];
      out.jobId = arbitrator.reserveJobId();
      Time effective = job.release;
      const std::int64_t begin = nowNs();
      out.decision = arbitrator.submit(out.jobId, job.spec, job.release,
                                       &effective, moves);
      const std::int64_t end = nowNs();
      r.latencyUs.push_back(microsBetween(begin, end));
      if (layers != nullptr) {
        layers->submitUs.push_back(r.latencyUs.back());
        layers->spans.add("qos.submit", begin, end, 0, out.jobId);
      }
    } else {
      out.jobId = op.jobId;
      out.clock = arbitrator.clock();
      const std::int64_t begin = nowNs();
      out.freed = arbitrator.cancel(op.jobId, moves);
      const std::int64_t end = nowNs();
      if (layers != nullptr) {
        layers->cancelUs.push_back(microsBetween(begin, end));
        layers->spans.add("qos.cancel", begin, end, 0, op.jobId);
      }
    }
    if (layers != nullptr) {
      for (int shard = 0; shard < arbitrator.shardCount(); ++shard) {
        segments += static_cast<double>(
            arbitrator.shard(shard).profile().segmentCount());
      }
    }
  }
  r.legS = secondsBetween(legStart, nowNs());

  for (std::size_t k = 0; k < plan->size(); ++k) {
    const Op& op = (*plan)[k];
    const Outcome& out = outcomes[k];
    ++r.attempted;
    if (!op.cancel) {
      const auto& decision = out.decision;
      ++r.decisions;
      r.book.offer(scenario.jobs[op.job].release);
      if (decision.admitted) {
        r.book.admit(out.jobId, decision.quality, decision.schedule.placements);
      }
      r.decisionHash.addDecision(out.jobId, decision.admitted,
                                 decision.schedule.chainIndex,
                                 decision.quality,
                                 decision.schedule.placements);
    } else {
      r.book.cancel(out.jobId, out.clock);
      r.decisionHash.add(static_cast<std::uint64_t>(out.freed));
    }
    for (const auto& m : out.moves) {
      r.book.move(m.jobId, m.toQuality, m.schedule.placements);
      r.moveHash.addMove(m.jobId, m.promotion, m.toChain, m.toQuality,
                         m.schedule.placements);
      ++r.moves;
    }
  }

  const auto report = arbitrator.verify();
  check(report.ok,
        std::string(w.name) + ": verify(): " + report.firstViolation);
  check(arbitrator.admittedCount() == r.book.admitted(),
        std::string(w.name) + ": arbitrator admitted count differs");
  std::int64_t ledgerArea = 0;
  std::uint64_t ledgerEntries = 0;
  for (int k = 0; k < arbitrator.shardCount(); ++k) {
    ledgerArea += arbitrator.shard(k).ledger().totalArea();
    ledgerEntries += arbitrator.shard(k).ledger().reservations().size();
  }
  check(ledgerArea == r.book.grantedArea(),
        std::string(w.name) +
            ": final placements disagree with the arbitrator's ledger");
  if (layers != nullptr) {
    layers->arbitratorSnapshot = registry.snapshot();
    layers->arbitratorOps = r.attempted;
    layers->arbitratorSubmits = r.decisions;
    layers->arbitratorLedgerEntries = ledgerEntries;
    layers->profileSegments.push_back(segments /
                                      static_cast<double>(plan->size()));
  }
  return r;
}

/// Rounds of the in-process workload.  Generating its 100 000 jobs takes
/// longer than pushing them through, so only the first kInprocSetups rounds
/// of a run set up from scratch (generate the stream, build the
/// arbitrator), and every set-up must generate the same stream.  Later
/// rounds push the last stream generated through a fresh arbitrator, which
/// leaves more of the run to the timed legs.
class InprocRounds {
 public:
  InprocRounds(const Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  RoundResult next(LayerSamples* layers) {
    if (setUps_ >= kInprocSetups) {
      RoundResult r = runInProcess(w_, *stream_, {}, layers);
      r.setUp = false;
      return r;
    }
    // One stream in memory at a time: the set-up replaces it.
    stream_.reset();
    const std::int64_t start = nowNs();
    stream_ = generateStream(w_, seed_);
    const double generateS = secondsBetween(start, nowNs());
    const std::uint64_t print = tprm::workload::fingerprint(*stream_);
    check(setUps_++ == 0 || print == fingerprint_,
          std::string(w_.name) + ": one seed generated two streams");
    fingerprint_ = print;
    // The arbitrator is built inside runInProcess; its construction is
    // part of set-up, its first submit the first timed request.
    RoundResult r = runInProcess(w_, *stream_, {}, layers);
    r.generateS = generateS;
    r.setupS += generateS;
    return r;
  }

 private:
  const Workload& w_;
  std::uint64_t seed_;
  std::optional<tprm::workload::Scenario> stream_;
  std::uint64_t fingerprint_ = 0;
  int setUps_ = 0;
};

/// One wire round: fresh daemon, one connection, the whole stream with at
/// most `inFlight` requests outstanding (1: latency leg, kWindow:
/// throughput leg).  Closed loop: the oldest response is harvested before
/// the next request goes out once the window is full.
RoundResult runWireRound(const Workload& w, std::uint64_t seed,
                         const std::string& socketPath, std::uint32_t inFlight,
                         LayerSamples* layers) {
  namespace svc = tprm::service;
  RoundResult r;
  const std::int64_t start = nowNs();
  const auto scenario = generateStream(w, seed);
  r.generateS = secondsBetween(start, nowNs());

  const tprm::elastic::Reshaper reshaper(
      tprm::elastic::VictimPolicy::MinQualityLoss);
  svc::ServerConfig config;
  config.processors = w.processors;
  config.shards = w.shards;
  config.eventLoops = 1;
  config.unixPath = socketPath;
  if (w.elastic) config.reshapePolicy = &reshaper;
  if (layers != nullptr) config.traceCapacity = 4 * scenario.jobs.size();
  svc::NegotiationServer server(config);
  std::string error;
  check(server.start(&error), "daemon start failed: " + error);

  svc::ClientConfig clientConfig;
  clientConfig.unixPath = socketPath;
  svc::PipelinedClient client(clientConfig, kWindow);
  if (const auto connectError = client.connect()) {
    throw CheckFailure("connect failed: " + connectError->message);
  }
  check(client.grantedWindow() >= kWindow, "daemon granted a smaller window");
  for (int i = 0; i < kWarmupRoundTrips; ++i) {
    ++r.attempted;
    if (!client.statsAsync().get().ok()) fail(r, "warm-up STATS failed");
  }
  r.setupS = secondsBetween(start, nowNs());

  struct Pending {
    svc::PipelinedClient::ResponseFuture future;
    std::size_t op;
    std::int64_t sentNs;
  };
  std::deque<Pending> inflight;
  std::vector<std::optional<svc::NegotiateResult>> results(
      scenario.jobs.size());
  std::vector<std::size_t> opOfJob(scenario.jobs.size());
  std::size_t harvested = 0;
  // Traced latency rounds keep every call for the spans and the codec
  // replay after the leg.
  struct TracedCall {
    std::size_t op;
    Interval roundtrip;
    svc::Response response;
  };
  std::vector<TracedCall> traced;

  const auto harvestFront = [&] {
    Pending pending = std::move(inflight.front());
    inflight.pop_front();
    auto result = pending.future.get();
    const std::int64_t done = nowNs();
    ++harvested;
    ++r.attempted;
    const Op& op = r.ops[pending.op];
    if (!result.ok()) {
      fail(r, std::string(svc::toString(result.error.status)) + ": " +
                  result.error.message);
      return;
    }
    if (!op.cancel) {
      const auto* decision =
          std::get_if<svc::NegotiateResult>(&result.value->result);
      if (decision == nullptr) {
        fail(r, "NEGOTIATE answered with another result type");
        return;
      }
      ++r.decisions;
      r.book.offer(scenario.jobs[op.job].release);
      if (decision->admitted) {
        r.book.admit(decision->jobId, decision->quality,
                     decision->placements);
      }
      r.decisionHash.addDecision(decision->jobId, decision->admitted,
                                 decision->chainIndex, decision->quality,
                                 decision->placements);
      if (inFlight == 1) {
        r.latencyUs.push_back(microsBetween(pending.sentNs, done));
      }
      results[op.job] = *decision;
    } else {
      const auto* cancelled =
          std::get_if<svc::CancelResult>(&result.value->result);
      if (cancelled == nullptr) {
        fail(r, "CANCEL answered with another result type");
        return;
      }
      if (!results[op.job]) {
        fail(r, "CANCEL answered before the negotiation it follows");
        return;
      }
      r.book.cancel(op.jobId, results[op.job]->release);
      r.decisionHash.add(static_cast<std::uint64_t>(cancelled->freedTicks));
    }
    if (layers != nullptr && inFlight == 1) {
      traced.push_back(TracedCall{pending.op, Interval{pending.sentNs, done},
                                  std::move(*result.value)});
    }
  };
  const auto send = [&](const Op& op) {
    r.ops.push_back(op);
    const std::int64_t sent = nowNs();
    auto future = op.cancel
                      ? client.cancelAsync(op.jobId)
                      : client.negotiateAsync(scenario.jobs[op.job].spec,
                                              scenario.jobs[op.job].release);
    inflight.push_back(Pending{std::move(future), r.ops.size() - 1, sent});
    while (inflight.size() >= inFlight) harvestFront();
  };

  const std::int64_t legStart = nowNs();
  for (std::size_t i = 0; i < scenario.jobs.size(); ++i) {
    opOfJob[i] = r.ops.size();
    send(Op{false, i, 0});
    if (!w.elastic || !cancelAfter(seed, i)) continue;
    const std::size_t target = i - kCancelLag;
    while (harvested <= opOfJob[target]) harvestFront();
    if (results[target] && results[target]->admitted) {
      send(Op{true, i, results[target]->jobId});
    }
  }
  while (!inflight.empty()) harvestFront();
  r.legS = secondsBetween(legStart, nowNs());

  ++r.attempted;
  const auto verify =
      svc::extractResult<svc::VerifyResult>(client.verifyAsync().get());
  if (!verify.ok()) {
    fail(r, "VERIFY failed: " + verify.error.message);
  } else {
    check(verify->ok,
          std::string(w.name) + ": VERIFY: " + verify->firstViolation);
  }
  // Pushes for a command are written before any later response, so after
  // the VERIFY answer every RESHAPED push of the stream has been read.
  for (const auto& event : client.drainReshapeEvents()) {
    r.book.move(event.jobId, event.toQuality, event.placements);
    r.moveHash.addMove(event.jobId, event.promotion, event.toChain,
                       event.toQuality, event.placements);
    ++r.moves;
  }
  client.close();
  const tprm::JsonValue daemonSnapshot =
      layers != nullptr ? server.observabilitySnapshot() : tprm::JsonValue();
  const auto ringSpans = layers != nullptr
                             ? server.traceRing()->recent()
                             : std::vector<tprm::obs::TraceSpan>{};
  server.stop();

  const auto counters = server.counters();
  check(counters.reshapeEventsDropped == 0 &&
            counters.reshapeEventsDispatched == r.moves,
        std::string(w.name) + ": reshape pushes lost");
  const auto& arbitrator = server.arbitrator();
  check(arbitrator.admittedCount() == r.book.admitted(),
        std::string(w.name) + ": daemon admitted count differs");
  check(arbitrator.shard(0).ledger().totalArea() == r.book.grantedArea(),
        std::string(w.name) +
            ": final placements disagree with the daemon's ledger");

  if (layers != nullptr) {
    layers->busyRejections += static_cast<std::uint64_t>(
        daemonSnapshot.find("server")->find("busy_rejections")->asNumber());
    layers->reshapePushes = static_cast<std::uint64_t>(
        daemonSnapshot.find("server")
            ->find("reshape_events_dispatched")
            ->asNumber());
    for (const char* suffix : kCrossCheckedCounters) {
      layers->daemonCounts[suffix] = counterSum(daemonSnapshot, suffix);
    }
  }

  if (layers != nullptr && inFlight == 1) {
    std::map<std::uint64_t, const tprm::obs::TraceSpan*> byRequest;
    for (const auto& span : ringSpans) byRequest[span.requestId] = &span;
    for (const TracedCall& call : traced) {
      const Op& op = r.ops[call.op];
      const svc::Response& response = call.response;
      const Interval& roundtrip = call.roundtrip;
      const std::uint64_t requestId = response.id;
      const std::uint64_t parent = layers->spans.add(
          "client.roundtrip", roundtrip.begin, roundtrip.end, 0, requestId);
      layers->roundtripUs.push_back(
          microsBetween(roundtrip.begin, roundtrip.end));

      const auto it = byRequest.find(requestId);
      check(it != byRequest.end(), "daemon trace ring lost a command span");
      const auto& command = *it->second;
      layers->spans.add("server.queue_wait", command.queuedNs, command.startNs,
                        parent, requestId);
      layers->spans.add("server.execute", command.startNs, command.endNs,
                        parent, requestId);
      layers->queueWaitUs.push_back(command.queueWaitUs());
      layers->executeUs.push_back(command.executeUs());

      // The codec over this request's own frames, re-run after the leg:
      // its durations (not positions) are charged to the round trip.
      svc::Request request;
      request.id = requestId;
      request.version = svc::kProtocolVersionV2;
      if (op.cancel) {
        request.command = svc::Command::Cancel;
        request.payload = svc::CancelRequest{op.jobId};
      } else {
        request.command = svc::Command::Negotiate;
        request.payload = svc::NegotiateRequest{scenario.jobs[op.job].spec,
                                                scenario.jobs[op.job].release};
      }
      std::int64_t codecNs = 0;
      const auto timed = [&](const char* name, auto&& fn) {
        const std::int64_t begin = nowNs();
        auto out = fn();
        const std::int64_t end = nowNs();
        layers->spans.add(name, begin, end, parent, requestId);
        codecNs += end - begin;
        return std::make_pair(std::move(out), microsBetween(begin, end));
      };
      auto [requestFrame, encReq] = timed("protocol.encode_request", [&] {
        return svc::encodeRequest(request);
      });
      auto [decodedRequest, decReq] = timed("protocol.decode_request", [&] {
        return svc::decodeRequest(requestFrame);
      });
      auto [responseFrame, encResp] = timed("protocol.encode_response", [&] {
        return svc::encodeResponse(response);
      });
      auto [decodedResponse, decResp] = timed("protocol.decode_response", [&] {
        return svc::decodeResponse(responseFrame);
      });
      check(decodedRequest.ok() && decodedResponse.ok(),
            "codec replay failed to decode its own frame");
      layers->encodeRequestUs.push_back(encReq);
      layers->decodeRequestUs.push_back(decReq);
      layers->encodeResponseUs.push_back(encResp);
      layers->decodeResponseUs.push_back(decResp);
      layers->requestBytes.push_back(
          static_cast<double>(requestFrame.size()));
      layers->responseBytes.push_back(
          static_cast<double>(responseFrame.size()));
      const std::int64_t self =
          selfTime(roundtrip, {Interval{command.startNs, command.endNs}}) -
          codecNs;
      layers->overheadUs.push_back(static_cast<double>(self) / 1e3);
    }
  }
  return r;
}

// --- runs ------------------------------------------------------------------

struct Options {
  /// When the process started: --seconds covers set-up and rounds alike.
  std::int64_t startNs = 0;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string samples;  // human-readable sample count
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::string countNote(std::size_t perRound, std::size_t rounds) {
  return std::to_string(perRound) + " per round x " + std::to_string(rounds) +
         " rounds";
}

double peakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Checks a round against the first one of the run: same decisions, same
/// moves, no failed operation.
void checkRound(const Workload& w, const RoundResult& first,
                const RoundResult& round) {
  check(round.failed == 0,
        std::string(w.name) + ": operation failed: " + round.firstError);
  check(round.decisionHash.value() == first.decisionHash.value() &&
            round.moveHash.value() == first.moveHash.value(),
        std::string(w.name) + ": rounds of one run made different decisions");
}

/// Runs rounds of the given kinds in turn until --seconds have passed since
/// the process started and at least `minRounds` rounds (and
/// kMinRoundsPerKind of each kind) have run.
template <typename RoundFn>
void runRounds(const Options& options, int kinds, int minRounds,
               RoundFn&& round) {
  minRounds = std::max(minRounds, kinds * kMinRoundsPerKind);
  for (int i = 0;; ++i) {
    if (i >= minRounds && i % kinds == 0 &&
        secondsBetween(options.startNs, nowNs()) >= options.seconds) {
      return;
    }
    round(i % kinds, i);
  }
}

std::string socketPath(const Options& options, int round) {
  return options.scratch + "/perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(round) + ".sock";
}

Report qualityMetrics(const Workload& w, const RoundResult& first,
                      std::uint64_t attempted, std::uint64_t failed) {
  Report report;
  report.attempted = attempted;
  report.failed = failed;
  const std::string jobs = std::to_string(first.book.offered()) + " jobs";
  report.metrics = {
      {"admit_ratio", "ratio", first.book.admitRatio(), jobs},
      {"mean_quality", "quality", first.book.meanQuality(),
       std::to_string(first.book.admitted()) + " admitted jobs"},
      {"utilization", "ratio", first.book.utilization(w.processors), jobs},
      {"success_ratio", "ratio", 1.0 - errorRatio(failed, attempted),
       std::to_string(attempted) + " operations"},
      {"peak_rss_mb", "MB", peakRssMb(), "1 process"},
  };
  return report;
}

/// End-to-end metrics, in BENCHMARK.json order.
///
/// Each timing is a mean over the run's rounds: throughput is the decisions
/// of all throughput rounds over their summed leg time, the latencies are
/// the mean of each latency round's percentile, set-up the mean set-up.
/// The host these runs are sized on switches, every tenth of a second or
/// so, between a fast and a slow state about 1.4x apart, and the share of
/// time spent slow changes from minute to minute.  A median or any other
/// quantile over rounds jumps between the two states as that share crosses
/// it; a mean moves only in proportion to the share.
Report endToEnd(const Workload& w, const Options& options) {
  // Only the first round is kept whole (its decisions are every round's);
  // later rounds leave just their timings, so memory does not grow with
  // the number of rounds a run fits in.
  std::optional<RoundResult> first;
  std::vector<double> setups, throughputLegS, p50, p99;
  std::size_t logged = 0;
  std::uint64_t attempted = 0, failed = 0;
  const auto keep = [&](RoundResult round, bool latency, bool throughputToo) {
    attempted += round.attempted;
    failed += round.failed;
    checkRound(w, first ? *first : round, round);
    // The per-round log on stderr shows how the figures below spread.
    std::fprintf(stderr, "round %zu", logged++);
    if (round.setUp) {
      setups.push_back(round.setupS);
      std::fprintf(stderr, " setup_s=%.6f", round.setupS);
    }
    if (latency) {
      p50.push_back(percentile(round.latencyUs, 0.50));
      p99.push_back(percentile(round.latencyUs, 0.99));
      std::fprintf(stderr, " latency_p50_us=%.3f latency_p99_us=%.3f",
                   p50.back(), p99.back());
    }
    if (throughputToo) {
      throughputLegS.push_back(round.legS);
      std::fprintf(stderr, " throughput_ops_s=%.1f",
                   static_cast<double>(round.decisions) / round.legS);
    }
    std::fprintf(stderr, "\n");
    if (!first && latency) first = std::move(round);
  };
  if (w.wire) {
    runRounds(options, 2, 0, [&](int kind, int i) {
      const std::uint32_t inFlight = kind == 0 ? 1 : kWindow;
      keep(runWireRound(w, options.seed, socketPath(options, i), inFlight,
                        nullptr),
           kind == 0, kind == 1);
    });
  } else {
    // One round kind: per-submit latency and back-to-back throughput come
    // from the same single-threaded pass.
    InprocRounds rounds(w, options.seed);
    runRounds(options, 1, kInprocSetups, [&](int, int) {
      keep(rounds.next(nullptr), true, true);
    });
  }

  const std::size_t perRound = first->latencyUs.size();
  Report report = qualityMetrics(w, *first, attempted, failed);
  std::vector<Metric> timing = {
      {"setup_s", "s", mean(setups),
       std::to_string(setups.size()) + " set-ups"},
      {"throughput_ops_s", "ops/s",
       static_cast<double>(first->decisions) / mean(throughputLegS),
       countNote(first->decisions, throughputLegS.size())},
      {"latency_p50_us", "us", mean(p50), countNote(perRound, p50.size())},
      {"latency_p99_us", "us", mean(p99),
       countNote(perRound, p99.size()) + ", " +
           std::to_string(samplesBeyond(perRound, 0.99)) +
           " beyond p99 per round"},
  };
  report.metrics.insert(report.metrics.begin(), timing.begin(), timing.end());
  return report;
}

/// Percentile of a per-layer sample set, 0 where the layer did not run
/// (too few samples to leave kTailSamples beyond it).
double percentileOr0(const std::vector<double>& v, double q) {
  return !v.empty() && samplesBeyond(v.size(), q) >= kTailSamples
             ? percentile(v, q)
             : 0.0;
}
double p50Or0(const std::vector<double>& v) { return percentileOr0(v, 0.50); }
double p99Or0(const std::vector<double>& v) { return percentileOr0(v, 0.99); }
double meanOr0(const std::vector<double>& v) {
  return v.empty() ? 0.0 : mean(v);
}
double ratioOr0(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Per-layer metrics, in BENCHMARK.json order.
Report perLayer(const Workload& w, const Options& options) {
  LayerSamples layers;
  std::optional<RoundResult> first;
  std::uint64_t attempted = 0, failed = 0;
  const auto keep = [&](RoundResult round, bool traced) {
    attempted += round.attempted;
    failed += round.failed;
    if (!first) first = round;
    checkRound(w, *first, round);
    (traced ? layers.tracedLegS : layers.untracedLegS).push_back(round.legS);
    if (round.setUp) layers.generateS.push_back(round.generateS);
  };
  if (w.wire) {
    // Untraced and traced latency rounds alternate so the tracing overhead
    // is measured on the same machine state; a traced saturating round
    // adds the busy and push counts under load.
    std::vector<Op> ops;
    runRounds(options, 3, 0, [&](int kind, int i) {
      LayerSamples* sink = kind == 0 ? nullptr : &layers;
      RoundResult round = runWireRound(w, options.seed, socketPath(options, i),
                                       kind == 2 ? kWindow : 1, sink);
      if (kind == 2) {
        attempted += round.attempted;
        failed += round.failed;
        checkRound(w, *first, round);
        return;
      }
      if (ops.empty()) ops = round.ops;
      keep(std::move(round), kind == 1);
    });
    // The in-process replay of the wire stream: same arrival order, same
    // cancels, same Reshaper.  It must reproduce every decision and move.
    const auto scenario = generateStream(w, options.seed);
    for (int i = 0; i < kMinRoundsPerKind; ++i) {
      RoundResult replay = runInProcess(w, scenario, ops, &layers);
      check(replay.decisionHash.value() == first->decisionHash.value() &&
                replay.moveHash.value() == first->moveHash.value(),
            std::string(w.name) +
                ": in-process replay diverged from the wire decisions");
      attempted += replay.attempted;
      for (const auto& [suffix, count] : layers.daemonCounts) {
        check(counterSum(layers.arbitratorSnapshot, suffix) == count,
              std::string(w.name) + ": replay counter " + suffix +
                  " differs from the daemon's");
      }
    }
  } else {
    InprocRounds rounds(w, options.seed);
    runRounds(options, 2, kInprocSetups, [&](int kind, int) {
      keep(rounds.next(kind == 1 ? &layers : nullptr), kind == 1);
    });
  }
  check(failed == 0, std::string(w.name) + ": an operation failed");

  const double ops = static_cast<double>(layers.arbitratorOps);
  const double submits = static_cast<double>(layers.arbitratorSubmits);
  const auto counter = [&](const char* suffix) {
    return counterSum(layers.arbitratorSnapshot, suffix);
  };
  const auto ratio = [&](const char* numerator, const char* denominator) {
    return ratioOr0(counter(numerator), counter(denominator));
  };
  const double hintHits = counter(".profile.fit_hint_hits");
  const double hintMisses = counter(".profile.fit_hint_misses");
  const double overhead =
      median(layers.tracedLegS) / median(layers.untracedLegS) - 1.0;
  const std::string frames =
      std::to_string(layers.encodeRequestUs.size()) + " frames";
  const std::string submitCalls =
      std::to_string(layers.submitUs.size()) + " submits";
  const std::string cancelCalls =
      std::to_string(layers.cancelUs.size()) + " cancels";
  const std::string stream = "1 stream";

  Report report;
  report.attempted = attempted;
  report.failed = failed;
  report.metrics = {
      {"workload.generate_s", "s", median(layers.generateS),
       std::to_string(layers.generateS.size()) + " streams"},
      {"protocol.encode_request_us", "us", p50Or0(layers.encodeRequestUs),
       frames},
      {"protocol.decode_request_us", "us", p50Or0(layers.decodeRequestUs),
       frames},
      {"protocol.encode_response_us", "us", p50Or0(layers.encodeResponseUs),
       frames},
      {"protocol.decode_response_us", "us", p50Or0(layers.decodeResponseUs),
       frames},
      {"protocol.request_bytes", "bytes", meanOr0(layers.requestBytes),
       frames},
      {"protocol.response_bytes", "bytes", meanOr0(layers.responseBytes),
       frames},
      {"service.roundtrip_p50_us", "us", p50Or0(layers.roundtripUs), frames},
      {"service.roundtrip_p99_us", "us", p99Or0(layers.roundtripUs), frames},
      {"service.queue_wait_p50_us", "us", p50Or0(layers.queueWaitUs), frames},
      {"service.queue_wait_p99_us", "us", p99Or0(layers.queueWaitUs), frames},
      {"service.execute_p50_us", "us", p50Or0(layers.executeUs), frames},
      {"service.execute_p99_us", "us", p99Or0(layers.executeUs), frames},
      {"service.overhead_p50_us", "us", p50Or0(layers.overheadUs), frames},
      {"service.busy_rejections", "count",
       static_cast<double>(layers.busyRejections), "traced rounds"},
      {"service.reshape_pushes", "count",
       static_cast<double>(layers.reshapePushes), stream},
      {"qos.submit_p50_us", "us", p50Or0(layers.submitUs), submitCalls},
      {"qos.submit_p99_us", "us", p99Or0(layers.submitUs), submitCalls},
      {"qos.cancel_p50_us", "us", p50Or0(layers.cancelUs), cancelCalls},
      {"qos.cancel_p99_us", "us", p99Or0(layers.cancelUs), cancelCalls},
      {"qos.spill_attempts", "count", counter("sharded.spill_attempts"),
       stream},
      {"qos.spill_admit_ratio", "ratio",
       ratio("sharded.spill_admitted", "sharded.spill_attempts"), stream},
      {"qos.gang_attempts", "count", counter("sharded.gang_attempts"), stream},
      {"qos.gang_admit_ratio", "ratio",
       ratio("sharded.gang_admitted", "sharded.gang_attempts"), stream},
      {"qos.gang_rollbacks", "count", counter("sharded.gang_rollbacks"),
       stream},
      {"sched.chains_evaluated_per_op", "count",
       ratioOr0(counter(".heuristic.chains_evaluated"), submits), stream},
      {"sched.schedulable_ratio", "ratio",
       ratio(".heuristic.chains_schedulable", ".heuristic.chains_evaluated"),
       stream},
      {"resource.fit_probes_per_op", "count",
       ratioOr0(counter(".profile.fit_probes"), ops), stream},
      {"resource.segments_scanned_per_op", "count",
       ratioOr0(counter(".profile.segments_scanned"), ops), stream},
      {"resource.holes_scanned_per_op", "count",
       ratioOr0(counter(".profile.holes_scanned"), ops), stream},
      {"resource.hint_hit_ratio", "ratio",
       ratioOr0(hintHits, hintHits + hintMisses), stream},
      {"resource.trial_rollbacks", "count",
       counter(".profile.trial_rollbacks"), stream},
      {"resource.trial_ops_undone_per_op", "count",
       ratioOr0(counter(".profile.trial_ops_undone"), ops), stream},
      {"resource.profile_segments", "count", meanOr0(layers.profileSegments),
       "mean after each op"},
      {"resource.ledger_entries", "count",
       static_cast<double>(layers.arbitratorLedgerEntries), stream},
      {"elastic.reshape_attempts", "count",
       counter(".elastic.reshape_attempts"), stream},
      {"elastic.reshape_admit_ratio", "ratio",
       ratio(".elastic.reshape_admitted", ".elastic.reshape_attempts"),
       stream},
      {"elastic.demotions", "count", counter(".elastic.demotions"), stream},
      {"elastic.promotions", "count", counter(".elastic.promotions"), stream},
      {"trace.overhead_ratio", "ratio", overhead,
       std::to_string(layers.tracedLegS.size()) + " traced vs " +
           std::to_string(layers.untracedLegS.size()) + " untraced rounds"},
      {"error_ratio", "ratio", errorRatio(failed, attempted),
       std::to_string(attempted) + " operations"},
  };
  layers.spans.write(options.scratch + "/trace-" + w.name + "-seed" +
                     std::to_string(options.seed) + ".jsonl");
  return report;
}

void printReport(const Report& report) {
  for (const auto& m : report.metrics) {
    std::printf("%-34s %16.6f %-8s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Confines the process to the CPU it runs on: every thread started
/// afterwards (the daemon's event loop and shard worker, the client's
/// reader) inherits the calling thread's CPU set.  On the virtual machines
/// this benchmark runs on, threads spread over several CPUs pay the host's
/// cross-CPU wake-up and contention costs, which swung the one-in-flight
/// p99 fivefold and the window-32 throughput threefold between runs; on one
/// CPU the figures measure the code path.  The CPU is the one the kernel
/// started the process on, not a fixed one, so that two runs at once, or a
/// run beside other work, do not share it by construction.
void pinToCurrentCpu() {
  const int cpu = ::sched_getcpu();
  check(cpu >= 0, "sched_getcpu failed");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(cpu), &one);
  check(::sched_setaffinity(0, sizeof one, &one) == 0,
        "sched_setaffinity failed");
}

Options parseOptions(int argc, char** argv) {
  Options options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
      if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace");
      options.trace = value == "1";
    } else if (key == "--scratch") {
      options.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!haveWorkload) throw std::invalid_argument("--workload is required");
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Options options = parseOptions(argc, argv);
    options.startNs = nowNs();
    const Workload& workload = workloadByName(options.workload);
    // The in-process workload runs one thread, which the kernel may move
    // off a CPU other work has taken.
    if (workload.wire) pinToCurrentCpu();
    const Report report = options.trace ? perLayer(workload, options)
                                        : endToEnd(workload, options);
    check(report.failed == 0, "operations failed");
    printReport(report);
    return 0;
  } catch (const CheckFailure& failure) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
