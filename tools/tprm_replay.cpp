// tprm_replay — record/replay driver for tprmd wire traces.
//
// Modes (pick one):
//
//   --gen=NAME --out=FILE [--jobs=N] [--seed=S]
//       Synthesize a trace from a canonical scenario (workload/scenario.h):
//       one NEGOTIATE record per generated job, in release order, pacing
//       deltas derived from the release gaps.
//
//   --in=FILE --cat
//       Dump the trace, one line per record.
//
//   --in=FILE [--procs=P] [--shards=K] [--no-spill] [--gang]
//       Replay the trace sequentially into a fresh in-process
//       ShardedArbitrator and print the decision summary + fingerprint.
//       --gang enables cross-shard gang admission (shards > 1).
//
//   --elastic[=POLICY]  (combines with every replay mode)
//       Attach the elastic Reshaper (min-quality-loss | most-recent-first |
//       proportional-share) to the replay arbitrator and/or the driven
//       daemon.  Reshape moves join the decision stream: the fingerprint
//       covers them, and --drive checks move-for-move identity (daemon
//       moves are collected from RESHAPED pushes after each mutation).
//
//   --in=FILE --unix=PATH | --in=FILE --tcp-port=PORT
//       Replay the trace sequentially into a live daemon and print the same
//       summary/fingerprint — run both modes and diff the fingerprints to
//       check decision-identity between simulator and daemon.
//       With --paced, honour the recorded inter-arrival deltas (deltaNanos)
//       instead of replaying as fast as the daemon answers; --pace-scale=X
//       multiplies the recorded gaps (0.5 = twice as fast, 2 = half speed).
//       Pacing follows an absolute schedule, so a slow response does not
//       push every later arrival out — bursts stay bursts.
//
//   --in=FILE --drive [--procs=P] [--shards=K] [--no-spill] [--gang]
//       Self-hosting verification: spins up a fresh in-process
//       NegotiationServer with the given sizing, replays the trace through a
//       real client connection, replays it again into a fresh in-process
//       arbitrator, and compares every NEGOTIATE decision field by field.
//       Exit 0 iff all decisions match.
//
// Replay is sequential (one request at a time, trace order == arrivalSeq
// order), which makes the decision stream a pure function of the trace and
// the sizing — the property the scenario regression tier pins.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <unistd.h>

#include "common/flags.h"
#include "common/time.h"
#include "elastic/reshaper.h"
#include "qos/sharded.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/wiretrace.h"
#include "workload/scenario.h"

namespace {

using namespace tprm;

/// One NEGOTIATE outcome in a form shared by every replay backend.
struct Decision {
  std::uint64_t traceSeq = 0;  // record's arrivalSeq (trace order)
  bool admitted = false;
  std::uint64_t jobId = 0;
  std::size_t chainIndex = 0;
  double quality = 0.0;
  Time release = 0;
};

/// One arbitrator-initiated quality move (elastic mode), normalized from
/// either qos::QualityMove (in-process) or service::ReshapeEvent (daemon).
struct Move {
  std::uint64_t jobId = 0;
  bool promotion = false;
  std::size_t fromChain = 0;
  std::size_t toChain = 0;
  double fromQuality = 0.0;
  double toQuality = 0.0;
};

struct ReplaySummary {
  std::uint64_t records = 0;
  std::uint64_t negotiates = 0;
  std::uint64_t cancels = 0;
  std::uint64_t other = 0;
  std::vector<Decision> decisions;
  std::vector<Move> moves;  // elastic mode only; trace order
};

void hashU64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

void hashDouble(std::uint64_t& h, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  hashU64(h, bits);
}

std::uint64_t decisionFingerprint(const ReplaySummary& summary) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& d : summary.decisions) {
    hashU64(h, d.traceSeq);
    hashU64(h, d.admitted ? 1 : 0);
    hashU64(h, d.jobId);
    hashU64(h, d.chainIndex);
    hashDouble(h, d.quality);
    hashU64(h, static_cast<std::uint64_t>(d.release));
  }
  for (const auto& m : summary.moves) {
    hashU64(h, m.jobId);
    hashU64(h, m.promotion ? 1 : 0);
    hashU64(h, m.fromChain);
    hashU64(h, m.toChain);
    hashDouble(h, m.fromQuality);
    hashDouble(h, m.toQuality);
  }
  return h;
}

void appendMoves(ReplaySummary& summary,
                 const std::vector<qos::QualityMove>& moves) {
  for (const auto& move : moves) {
    summary.moves.push_back({move.jobId, move.promotion, move.fromChain,
                             move.toChain, move.fromQuality, move.toQuality});
  }
}

/// Decodes every record payload up front; exits the process on the first
/// malformed record (a damaged trace must never half-replay silently).
std::vector<service::Request> decodeAll(
    const std::vector<service::WireTraceRecord>& records) {
  std::vector<service::Request> requests;
  requests.reserve(records.size());
  for (const auto& record : records) {
    auto parsed = service::decodeRequest(record.payload);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "tprm_replay: record seq=%" PRIu64 " undecodable: %s\n",
                   record.arrivalSeq, parsed.error.c_str());
      std::exit(1);
    }
    requests.push_back(std::move(*parsed.request));
  }
  return requests;
}

qos::ShardedOptions shardedOptions(int shards, bool spill, bool gang) {
  qos::ShardedOptions options;
  options.shards = shards;
  options.spill = spill;
  options.gang = gang;
  return options;
}

/// Sequential replay into a fresh in-process sharded arbitrator.  NEGOTIATE
/// reserves the next global job id exactly as the server does at enqueue, so
/// ids (and home shards) line up with a recorded daemon run.
ReplaySummary replayInProcess(
    const std::vector<service::WireTraceRecord>& records, int processors,
    int shards, bool spill, bool gang, const qos::ReshapePolicy* policy) {
  const auto requests = decodeAll(records);
  qos::ShardedArbitrator arbitrator(processors,
                                    shardedOptions(shards, spill, gang));
  if (policy != nullptr) arbitrator.attachReshapePolicy(policy);
  ReplaySummary summary;
  std::vector<qos::QualityMove> moves;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& request = requests[i];
    ++summary.records;
    switch (request.command) {
      case service::Command::Negotiate: {
        const auto& payload =
            std::get<service::NegotiateRequest>(request.payload);
        ++summary.negotiates;
        const std::uint64_t jobId = arbitrator.reserveJobId();
        Time effective = payload.release;
        moves.clear();
        const auto outcome =
            arbitrator.submit(jobId, payload.spec, payload.release, &effective,
                              policy != nullptr ? &moves : nullptr);
        appendMoves(summary, moves);
        Decision decision;
        decision.traceSeq = records[i].arrivalSeq;
        decision.admitted = outcome.admitted;
        decision.jobId = jobId;
        decision.release = effective;
        if (outcome.admitted) {
          decision.chainIndex = outcome.schedule.chainIndex;
          decision.quality = outcome.quality;
        }
        summary.decisions.push_back(decision);
        break;
      }
      case service::Command::Cancel: {
        ++summary.cancels;
        moves.clear();
        (void)arbitrator.cancel(
            std::get<service::CancelRequest>(request.payload).jobId,
            policy != nullptr ? &moves : nullptr);
        appendMoves(summary, moves);
        break;
      }
      case service::Command::Resize: {
        ++summary.other;
        const auto& payload =
            std::get<service::ResizeRequest>(request.payload);
        if (payload.processors >= arbitrator.shardCount()) {
          (void)arbitrator.resize(payload.processors,
                                  std::max(payload.when, arbitrator.clock()));
        }
        break;
      }
      case service::Command::Stats:
      case service::Command::Verify:
      case service::Command::Hello:
        ++summary.other;  // read-only / handshake: no effect on decisions
        break;
    }
  }
  return summary;
}

/// Sequential replay through a live daemon connection.  When `paced`, each
/// record is released at startTime + paceScale * (cumulative deltaNanos) —
/// an absolute schedule, so response latency never dilates the recorded
/// arrival process.
ReplaySummary replayIntoDaemon(
    const std::vector<service::WireTraceRecord>& records,
    const service::ClientConfig& config, bool paced = false,
    double paceScale = 1.0, bool collectMoves = false) {
  const auto requests = decodeAll(records);
  service::QoSAgentClient client(config);
  if (auto error = client.connect()) {
    std::fprintf(stderr, "tprm_replay: connect failed: %s\n",
                 error->message.c_str());
    std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  double dueNanos = 0.0;
  ReplaySummary summary;
  // Elastic daemons push this connection's reshape moves (RESHAPED);
  // draining after every mutation keeps the collected move stream in trace
  // order.
  const auto drainReshapes = [&] {
    if (!collectMoves) return;
    for (const auto& event : client.drainReshapeEvents()) {
      summary.moves.push_back({event.jobId, event.promotion, event.fromChain,
                               event.toChain, event.fromQuality,
                               event.toQuality});
    }
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& request = requests[i];
    if (paced) {
      dueNanos += paceScale * static_cast<double>(records[i].deltaNanos);
      const auto due =
          start + std::chrono::nanoseconds(static_cast<std::int64_t>(dueNanos));
      if (due > std::chrono::steady_clock::now()) {
        std::this_thread::sleep_until(due);
      }
    }
    ++summary.records;
    switch (request.command) {
      case service::Command::Negotiate: {
        const auto& payload =
            std::get<service::NegotiateRequest>(request.payload);
        ++summary.negotiates;
        const auto result = client.negotiate(payload.spec, payload.release);
        if (!result.ok()) {
          std::fprintf(stderr, "tprm_replay: NEGOTIATE failed: %s\n",
                       result.error.message.c_str());
          std::exit(1);
        }
        Decision decision;
        decision.traceSeq = records[i].arrivalSeq;
        decision.admitted = result->admitted;
        decision.jobId = result->jobId;
        decision.chainIndex = result->chainIndex;
        decision.quality = result->quality;
        decision.release = result->release;
        summary.decisions.push_back(decision);
        drainReshapes();
        break;
      }
      case service::Command::Cancel: {
        ++summary.cancels;
        const auto result = client.cancel(
            std::get<service::CancelRequest>(request.payload).jobId);
        if (!result.ok()) {
          std::fprintf(stderr, "tprm_replay: CANCEL failed: %s\n",
                       result.error.message.c_str());
          std::exit(1);
        }
        drainReshapes();
        break;
      }
      case service::Command::Resize: {
        ++summary.other;
        const auto& payload =
            std::get<service::ResizeRequest>(request.payload);
        const auto result = client.resize(payload.processors, payload.when);
        if (!result.ok() &&
            result.error.status != service::ClientStatus::ServerError) {
          std::fprintf(stderr, "tprm_replay: RESIZE failed: %s\n",
                       result.error.message.c_str());
          std::exit(1);
        }
        break;
      }
      case service::Command::Stats:
      case service::Command::Verify:
      case service::Command::Hello:
        ++summary.other;  // the blocking client handshakes on its own
        break;
    }
  }
  if (collectMoves) {
    // A push is written before any later response on the connection, so
    // after one more round trip every move of the trace is in.
    const auto barrier = client.stats();
    if (!barrier.ok()) {
      std::fprintf(stderr, "tprm_replay: STATS failed: %s\n",
                   barrier.error.message.c_str());
      std::exit(1);
    }
    drainReshapes();
  }
  return summary;
}

void printSummary(const char* label, const ReplaySummary& summary) {
  std::printf(
      "%s: records=%" PRIu64 " negotiates=%" PRIu64 " cancels=%" PRIu64
      " other=%" PRIu64 "\n",
      label, summary.records, summary.negotiates, summary.cancels,
      summary.other);
  std::uint64_t admitted = 0;
  for (const auto& d : summary.decisions) admitted += d.admitted ? 1 : 0;
  std::printf("%s: admitted=%" PRIu64 " rejected=%zu\n", label, admitted,
              summary.decisions.size() - admitted);
  if (!summary.moves.empty()) {
    std::uint64_t promotions = 0;
    for (const auto& m : summary.moves) promotions += m.promotion ? 1 : 0;
    std::printf("%s: reshapes=%zu (demotions=%zu promotions=%" PRIu64 ")\n",
                label, summary.moves.size(),
                summary.moves.size() - promotions, promotions);
  }
  std::printf("%s: decision_fingerprint=%016" PRIx64 "\n", label,
              decisionFingerprint(summary));
}

bool decisionsMatch(const ReplaySummary& a, const ReplaySummary& b) {
  if (a.decisions.size() != b.decisions.size()) {
    std::fprintf(stderr, "mismatch: %zu vs %zu decisions\n",
                 a.decisions.size(), b.decisions.size());
    return false;
  }
  bool ok = true;
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    const auto& x = a.decisions[i];
    const auto& y = b.decisions[i];
    if (x.admitted != y.admitted || x.jobId != y.jobId ||
        x.chainIndex != y.chainIndex || x.quality != y.quality ||
        x.release != y.release) {
      std::fprintf(stderr,
                   "mismatch at negotiate #%zu (seq=%" PRIu64
                   "): admitted %d/%d jobId %" PRIu64 "/%" PRIu64
                   " chain %zu/%zu quality %.17g/%.17g\n",
                   i, x.traceSeq, x.admitted ? 1 : 0, y.admitted ? 1 : 0,
                   x.jobId, y.jobId, x.chainIndex, y.chainIndex, x.quality,
                   y.quality);
      ok = false;
    }
  }
  if (a.moves.size() != b.moves.size()) {
    std::fprintf(stderr, "mismatch: %zu vs %zu reshape moves\n",
                 a.moves.size(), b.moves.size());
    return false;
  }
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    const auto& x = a.moves[i];
    const auto& y = b.moves[i];
    if (x.jobId != y.jobId || x.promotion != y.promotion ||
        x.fromChain != y.fromChain || x.toChain != y.toChain ||
        x.fromQuality != y.fromQuality || x.toQuality != y.toQuality) {
      std::fprintf(stderr,
                   "mismatch at reshape #%zu: jobId %" PRIu64 "/%" PRIu64
                   " promotion %d/%d chain %zu->%zu vs %zu->%zu quality "
                   "%.17g->%.17g vs %.17g->%.17g\n",
                   i, x.jobId, y.jobId, x.promotion ? 1 : 0,
                   y.promotion ? 1 : 0, x.fromChain, x.toChain, y.fromChain,
                   y.toChain, x.fromQuality, x.toQuality, y.fromQuality,
                   y.toQuality);
      ok = false;
    }
  }
  return ok;
}

int generateTrace(const std::string& name, const std::string& outPath,
                  std::uint64_t seed, std::size_t jobs) {
  const auto params = workload::scenarioByName(name, seed, jobs);
  if (!params.has_value()) {
    std::fprintf(stderr, "tprm_replay: unknown scenario '%s' (known:",
                 name.c_str());
    for (const auto& known : workload::scenarioNames()) {
      std::fprintf(stderr, " %s", known.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const auto scenario = workload::ScenarioGenerator(*params).generate();
  service::WireTraceWriter writer;
  std::string error;
  if (!writer.open(outPath, &error)) {
    std::fprintf(stderr, "tprm_replay: %s\n", error.c_str());
    return 1;
  }
  Time previous = 0;
  for (std::size_t i = 0; i < scenario.jobs.size(); ++i) {
    const auto& job = scenario.jobs[i];
    service::Request request;
    request.id = i + 1;
    request.command = service::Command::Negotiate;
    request.payload = service::NegotiateRequest{job.spec, job.release};
    service::WireTraceRecord record;
    record.arrivalSeq = i;
    // Pacing metadata: one simulated tick = one nanosecond of spacing.
    record.deltaNanos =
        i == 0 ? 0 : static_cast<std::uint64_t>(job.release - previous);
    previous = job.release;
    record.payload = service::encodeRequest(request);
    if (!writer.append(record, &error)) {
      std::fprintf(stderr, "tprm_replay: %s\n", error.c_str());
      return 1;
    }
  }
  if (!writer.close(&error)) {
    std::fprintf(stderr, "tprm_replay: %s\n", error.c_str());
    return 1;
  }
  std::printf("tprm_replay: wrote %zu records (%s, seed=%" PRIu64 ") to %s\n",
              scenario.jobs.size(), workload::toString(params->kind).c_str(),
              seed, outPath.c_str());
  return 0;
}

int catTrace(const std::vector<service::WireTraceRecord>& records) {
  for (const auto& record : records) {
    const auto parsed = service::decodeRequest(record.payload);
    std::printf("seq=%" PRIu64 " delta_ns=%" PRIu64 " bytes=%zu %s\n",
                record.arrivalSeq, record.deltaNanos, record.payload.size(),
                parsed.ok() ? service::toString(parsed.request->command)
                            : "<undecodable>");
  }
  return 0;
}

std::vector<service::WireTraceRecord> loadOrDie(const std::string& path) {
  auto loaded = service::loadWireTrace(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "tprm_replay: %s: %s (%s after %zu records)\n",
                 path.c_str(), loaded.message.c_str(),
                 service::toString(loaded.status), loaded.records.size());
    std::exit(1);
  }
  return std::move(loaded.records);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto unknown = flags.unknownAgainst(
      {"in", "out", "gen", "jobs", "seed", "procs", "shards", "no-spill",
       "gang", "unix", "tcp-port", "drive", "cat", "paced", "pace-scale",
       "elastic"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "tprm_replay: unknown flag --%s\n",
                 unknown.front().c_str());
    return 2;
  }

  const std::string gen = flags.getString("gen", "");
  if (!gen.empty()) {
    const std::string out = flags.getString("out", "");
    if (out.empty()) {
      std::fprintf(stderr, "tprm_replay: --gen requires --out=FILE\n");
      return 2;
    }
    return generateTrace(
        gen, out, static_cast<std::uint64_t>(flags.getInt("seed", 1)),
        static_cast<std::size_t>(flags.getInt("jobs", 500)));
  }

  const std::string in = flags.getString("in", "");
  if (in.empty()) {
    std::fprintf(stderr,
                 "usage: tprm_replay --gen=NAME --out=FILE [--jobs --seed]\n"
                 "       tprm_replay --in=FILE --cat\n"
                 "       tprm_replay --in=FILE [--procs --shards --no-spill --gang]\n"
                 "       tprm_replay --in=FILE --unix=PATH | --tcp-port=PORT\n"
                 "                   [--paced [--pace-scale=X]]\n"
                 "       tprm_replay --in=FILE --drive [--procs --shards]\n");
    return 2;
  }
  const auto records = loadOrDie(in);
  if (flags.getBool("cat", false)) return catTrace(records);

  const int processors = static_cast<int>(flags.getInt("procs", 32));
  const int shards = static_cast<int>(flags.getInt("shards", 1));
  const bool spill = !flags.getBool("no-spill", false);
  const bool gang = flags.getBool("gang", false);
  if (shards < 1 || shards > processors) {
    std::fprintf(stderr, "tprm_replay: --shards must be in [1, --procs]\n");
    return 2;
  }

  const bool paced = flags.getBool("paced", false);
  const double paceScale = flags.getDouble("pace-scale", 1.0);
  if (paceScale <= 0.0) {
    std::fprintf(stderr, "tprm_replay: --pace-scale must be > 0\n");
    return 2;
  }

  std::optional<elastic::Reshaper> reshaper;
  if (flags.has("elastic")) {
    const std::string policyName = flags.getString("elastic", "");
    auto policy = elastic::VictimPolicy::MinQualityLoss;
    if (policyName != "true") {  // bare --elastic parses as "true"
      const auto parsed = elastic::victimPolicyFromName(policyName);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "tprm_replay: --elastic=%s is not a policy (want "
                     "min-quality-loss | most-recent-first | "
                     "proportional-share)\n",
                     policyName.c_str());
        return 2;
      }
      policy = *parsed;
    }
    reshaper.emplace(policy);
  }
  const qos::ReshapePolicy* reshapePolicy =
      reshaper.has_value() ? &*reshaper : nullptr;

  const std::string unixPath = flags.getString("unix", "");
  const bool haveTcp = flags.has("tcp-port");
  if (!unixPath.empty() || haveTcp) {
    service::ClientConfig client;
    client.unixPath = unixPath;
    if (haveTcp) {
      client.tcpPort =
          static_cast<std::uint16_t>(flags.getInt("tcp-port", 0));
    }
    const auto summary = replayIntoDaemon(records, client, paced, paceScale,
                                          reshaper.has_value());
    printSummary("daemon", summary);
    return 0;
  }

  if (flags.getBool("drive", false)) {
    // Self-hosting verification: a fresh daemon and a fresh in-process
    // arbitrator replay the same trace sequentially; decisions must agree.
    service::ServerConfig config;
    config.processors = processors;
    config.shards = shards;
    config.shardSpill = spill;
    config.shardGang = gang;
    config.reshapePolicy = reshapePolicy;
    config.unixPath =
        "/tmp/tprm_replay_" + std::to_string(::getpid()) + ".sock";
    service::NegotiationServer server(config);
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "tprm_replay: server start failed: %s\n",
                   error.c_str());
      return 1;
    }
    service::ClientConfig client;
    client.unixPath = config.unixPath;
    const auto viaDaemon =
        replayIntoDaemon(records, client, false, 1.0, reshaper.has_value());
    server.stop();
    const auto viaSim =
        replayInProcess(records, processors, shards, spill, gang,
                        reshapePolicy);
    printSummary("daemon", viaDaemon);
    printSummary("sim", viaSim);
    if (!decisionsMatch(viaSim, viaDaemon)) {
      std::fprintf(stderr, "tprm_replay: DECISIONS DIVERGED\n");
      return 1;
    }
    std::printf("tprm_replay: decisions identical (%zu negotiations)\n",
                viaSim.decisions.size());
    return 0;
  }

  const auto summary =
      replayInProcess(records, processors, shards, spill, gang, reshapePolicy);
  printSummary("sim", summary);
  return 0;
}
