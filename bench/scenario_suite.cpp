// Scenario suite: admission quality and decision latency across the four
// canonical workload scenarios (workload/scenario.h), per shard count.
//
//   scenario_suite --jobs=600 --seed=1 --procs=32 --sweep=1,4,8 --gang
//       --out=BENCH_scenarios.json
//
// --gang turns on cross-shard gang admission (qos/sharded.h) for every
// multi-shard leg: jobs whose narrowest chain is wider than a single
// shard's partition are trial-reserved as width fragments across shards
// instead of being rejected outright.  Each leg reports how many jobs the
// gang path admitted.
//
// For every scenario x shard-count leg a fresh ShardedArbitrator replays
// the generated stream sequentially (trace order = arrival order) and
// reports:
//
//  * on-time throughput — admitted / offered.  An admission here IS an
//    on-time completion: the arbitrator only admits a job with a guaranteed
//    schedule meeting every deadline, and guarantees are never revoked
//    (only RESIZE renegotiates, and the suite issues none).
//  * delivered quality — mean and min over admitted jobs, plus the count of
//    quality-floor violations (multi-tenant legs; must be zero — the
//    generator never offers a chain below its tenant's floor).
//  * decision latency — p50/p95/p99/max wall microseconds per submit().
//  * decision fingerprint — the replay-stable hash tools/tprm_replay prints,
//    so a bench artifact can be diffed against a replay run.
//
// One extra row (unless --paced-duration-ms=0): the flash-crowd scenario
// replayed through a live in-process tprmd over a real connection, with
// wall-clock pacing derived from the release gaps and stretched to
// ~--paced-duration-ms.  Submission is sequential, so the decision stream
// must be identical to the in-process flash-crowd leg at the same shard
// count — a fingerprint mismatch fails the suite.
//
// Output schema: docs/scenarios_schema.json (validated in CI by
// tools/validate_scenarios.py).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/flags.h"
#include "common/json.h"
#include "qos/sharded.h"
#include "service/client.h"
#include "service/server.h"
#include "workload/scenario.h"

namespace {

using namespace tprm;
using Clock = std::chrono::steady_clock;

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

void hashU64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, v);
  return buffer;
}

struct TenantStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  double qualitySum = 0.0;
};

struct Leg {
  std::string scenario;
  std::string kind;
  int shards = 1;
  std::uint64_t jobs = 0;
  std::uint64_t admitted = 0;
  std::uint64_t floorViolations = 0;
  double qualitySum = 0.0;
  double qualityMin = 1.0;
  double p50 = 0, p95 = 0, p99 = 0, pMax = 0;
  std::uint64_t fingerprint = 0;
  bool gang = false;                 // cross-shard gang admission enabled
  std::uint64_t gangAdmitted = 0;    // jobs admitted via the gang path
  std::vector<TenantStats> tenants;  // parallel to scenario.tenants
  bool paced = false;                // wall-clock paced daemon replay leg
  double paceScale = 0.0;            // ns of wall time per release tick
  bool ok = true;                    // paced leg: daemon replay healthy
};

Leg runLeg(const workload::Scenario& scenario, int processors, int shards,
           bool gang) {
  qos::ShardedOptions options;
  options.shards = shards;
  options.gang = gang;
  Leg leg;
  leg.gang = gang;
  leg.scenario = scenario.params.name.empty()
                     ? workload::toString(scenario.params.kind)
                     : scenario.params.name;
  leg.kind = workload::toString(scenario.params.kind);
  leg.shards = shards;
  leg.tenants.resize(scenario.tenants.size());

  qos::ShardedArbitrator arbitrator(processors, options);
  std::vector<double> latenciesUs;
  latenciesUs.reserve(scenario.jobs.size());
  std::uint64_t fingerprint = 1469598103934665603ULL;

  for (const auto& job : scenario.jobs) {
    ++leg.jobs;
    const std::uint64_t jobId = arbitrator.reserveJobId();
    Time effective = job.release;
    const auto start = Clock::now();
    const auto decision =
        arbitrator.submit(jobId, job.spec, job.release, &effective);
    const auto elapsed = Clock::now() - start;
    latenciesUs.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());

    hashU64(fingerprint, jobId);
    hashU64(fingerprint, decision.admitted ? 1 : 0);
    if (job.tenant >= 0) {
      ++leg.tenants[static_cast<std::size_t>(job.tenant)].offered;
    }
    if (!decision.admitted) continue;
    ++leg.admitted;
    hashU64(fingerprint, decision.schedule.chainIndex);
    std::uint64_t qualityBits;
    static_assert(sizeof(qualityBits) == sizeof(decision.quality));
    __builtin_memcpy(&qualityBits, &decision.quality, sizeof(qualityBits));
    hashU64(fingerprint, qualityBits);
    leg.qualitySum += decision.quality;
    leg.qualityMin = std::min(leg.qualityMin, decision.quality);
    if (job.tenant >= 0) {
      auto& tenant = leg.tenants[static_cast<std::size_t>(job.tenant)];
      ++tenant.admitted;
      tenant.qualitySum += decision.quality;
      const double floor =
          scenario.tenants[static_cast<std::size_t>(job.tenant)].qualityFloor;
      if (decision.quality < floor) ++leg.floorViolations;
    }
  }
  leg.fingerprint = fingerprint;
  leg.gangAdmitted = arbitrator.gangAdmittedCount();
  std::sort(latenciesUs.begin(), latenciesUs.end());
  leg.p50 = percentile(latenciesUs, 0.50);
  leg.p95 = percentile(latenciesUs, 0.95);
  leg.p99 = percentile(latenciesUs, 0.99);
  leg.pMax = latenciesUs.empty() ? 0.0 : latenciesUs.back();
  return leg;
}

/// Flash-crowd replay through a live in-process tprmd: sequential blocking
/// submissions paced on the wall clock.  Release gaps (simulated ticks) are
/// stretched so the whole stream spans ~`durationMs`; pacing follows an
/// absolute schedule, so slow decisions never dilate the arrival burst.
/// Sequential submission keeps trace order == arrival order, so decisions
/// must be identical to the in-process leg at the same shard count.
Leg runPacedDaemonLeg(const workload::Scenario& scenario, int processors,
                      int shards, bool gang, int durationMs) {
  Leg leg;
  leg.gang = gang;
  leg.scenario = scenario.params.name.empty()
                     ? workload::toString(scenario.params.kind)
                     : scenario.params.name;
  leg.kind = workload::toString(scenario.params.kind);
  leg.shards = shards;
  leg.paced = true;
  leg.tenants.resize(scenario.tenants.size());

  Time firstRelease = 0, lastRelease = 0;
  if (!scenario.jobs.empty()) {
    firstRelease = scenario.jobs.front().release;
    lastRelease = scenario.jobs.back().release;
  }
  const double spanTicks =
      static_cast<double>(lastRelease - firstRelease);
  leg.paceScale = spanTicks > 0
                      ? static_cast<double>(durationMs) * 1e6 / spanTicks
                      : 0.0;  // ns of wall time per simulated tick

  service::ServerConfig config;
  config.processors = processors;
  config.shards = shards;
  config.shardGang = gang;
  config.unixPath = "/tmp/tprm-scenario-suite-" +
                    std::to_string(::getpid()) + ".sock";
  service::NegotiationServer server(config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "scenario_suite: paced server start failed: %s\n",
                 error.c_str());
    leg.ok = false;
    return leg;
  }
  service::ClientConfig clientConfig;
  clientConfig.unixPath = config.unixPath;
  service::QoSAgentClient client(clientConfig);

  std::vector<double> latenciesUs;
  latenciesUs.reserve(scenario.jobs.size());
  std::uint64_t fingerprint = 1469598103934665603ULL;
  const auto begin = Clock::now();
  for (const auto& job : scenario.jobs) {
    const auto due =
        begin + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    static_cast<double>(job.release - firstRelease) *
                    leg.paceScale));
    if (due > Clock::now()) std::this_thread::sleep_until(due);
    ++leg.jobs;
    const auto start = Clock::now();
    const auto decision = client.negotiate(job.spec, job.release);
    const auto elapsed = Clock::now() - start;
    if (!decision.ok()) {
      std::fprintf(stderr, "scenario_suite: paced NEGOTIATE failed: %s\n",
                   decision.error.message.c_str());
      leg.ok = false;
      break;
    }
    latenciesUs.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
    hashU64(fingerprint, decision->jobId);
    hashU64(fingerprint, decision->admitted ? 1 : 0);
    if (job.tenant >= 0) {
      ++leg.tenants[static_cast<std::size_t>(job.tenant)].offered;
    }
    if (!decision->admitted) continue;
    ++leg.admitted;
    hashU64(fingerprint, decision->chainIndex);
    std::uint64_t qualityBits;
    static_assert(sizeof(qualityBits) == sizeof(decision->quality));
    __builtin_memcpy(&qualityBits, &decision->quality, sizeof(qualityBits));
    hashU64(fingerprint, qualityBits);
    leg.qualitySum += decision->quality;
    leg.qualityMin = std::min(leg.qualityMin, decision->quality);
    if (job.tenant >= 0) {
      auto& tenant = leg.tenants[static_cast<std::size_t>(job.tenant)];
      ++tenant.admitted;
      tenant.qualitySum += decision->quality;
      const double floor =
          scenario.tenants[static_cast<std::size_t>(job.tenant)].qualityFloor;
      if (decision->quality < floor) ++leg.floorViolations;
    }
  }
  client.close();
  server.stop();
  leg.fingerprint = fingerprint;
  leg.gangAdmitted = server.arbitrator().gangAdmittedCount();
  std::sort(latenciesUs.begin(), latenciesUs.end());
  leg.p50 = percentile(latenciesUs, 0.50);
  leg.p95 = percentile(latenciesUs, 0.95);
  leg.p99 = percentile(latenciesUs, 0.99);
  leg.pMax = latenciesUs.empty() ? 0.0 : latenciesUs.back();
  return leg;
}

JsonValue legJson(const Leg& leg, const workload::Scenario& scenario) {
  JsonValue::Object doc;
  doc["scenario"] = leg.scenario;
  doc["kind"] = leg.kind;
  doc["shards"] = leg.shards;
  doc["jobs"] = static_cast<std::int64_t>(leg.jobs);
  doc["admitted"] = static_cast<std::int64_t>(leg.admitted);
  doc["rejected"] = static_cast<std::int64_t>(leg.jobs - leg.admitted);
  doc["on_time_throughput"] =
      leg.jobs == 0 ? 0.0
                    : static_cast<double>(leg.admitted) /
                          static_cast<double>(leg.jobs);
  doc["mean_quality"] =
      leg.admitted == 0 ? 0.0
                        : leg.qualitySum / static_cast<double>(leg.admitted);
  doc["min_quality"] = leg.admitted == 0 ? 0.0 : leg.qualityMin;
  doc["floor_violations"] = static_cast<std::int64_t>(leg.floorViolations);
  JsonValue::Object latency;
  latency["p50_us"] = leg.p50;
  latency["p95_us"] = leg.p95;
  latency["p99_us"] = leg.p99;
  latency["max_us"] = leg.pMax;
  doc["latency"] = JsonValue(std::move(latency));
  doc["decision_fingerprint"] = hex64(leg.fingerprint);
  if (leg.gang) {
    doc["gang"] = true;
    doc["gang_admitted"] = static_cast<std::int64_t>(leg.gangAdmitted);
  }
  if (leg.paced) {
    doc["paced"] = true;
    doc["pace_ns_per_tick"] = leg.paceScale;
  }
  if (!leg.tenants.empty()) {
    JsonValue::Array tenants;
    for (std::size_t i = 0; i < leg.tenants.size(); ++i) {
      const auto& stats = leg.tenants[i];
      JsonValue::Object tenant;
      tenant["name"] = scenario.tenants[i].name;
      tenant["quality_floor"] = scenario.tenants[i].qualityFloor;
      tenant["offered"] = static_cast<std::int64_t>(stats.offered);
      tenant["admitted"] = static_cast<std::int64_t>(stats.admitted);
      tenant["mean_quality"] =
          stats.admitted == 0
              ? 0.0
              : stats.qualitySum / static_cast<double>(stats.admitted);
      tenants.emplace_back(std::move(tenant));
    }
    doc["tenants"] = JsonValue(std::move(tenants));
  }
  return JsonValue(std::move(doc));
}

std::vector<int> parseSweep(const std::string& sweep) {
  std::vector<int> shards;
  std::string token;
  for (const char c : sweep + ",") {
    if (c == ',') {
      if (!token.empty()) shards.push_back(std::stoi(token));
      token.clear();
    } else {
      token += c;
    }
  }
  return shards;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto unknown = flags.unknownAgainst(
      {"jobs", "seed", "procs", "sweep", "out", "gang",
       "paced-duration-ms"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "scenario_suite: unknown flag --%s\n",
                 unknown.front().c_str());
    return 2;
  }
  const auto jobs = static_cast<std::size_t>(flags.getInt("jobs", 600));
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  const int processors = static_cast<int>(flags.getInt("procs", 32));
  const auto sweep = parseSweep(flags.getString("sweep", "1,4"));
  const std::string outPath = flags.getString("out", "");
  const bool gangFlag = flags.getBool("gang", false);
  const int pacedDurationMs =
      static_cast<int>(flags.getInt("paced-duration-ms", 250));

  bool ok = true;
  JsonValue::Array legs;
  for (const auto& name : workload::scenarioNames()) {
    const auto params = workload::scenarioByName(name, seed, jobs);
    const auto scenario = workload::ScenarioGenerator(*params).generate();
    std::printf("%s: %zu jobs, stream fingerprint %s\n", name.c_str(),
                scenario.jobs.size(),
                hex64(workload::fingerprint(scenario)).c_str());
    for (const int shards : sweep) {
      if (shards < 1 || shards > processors) {
        std::fprintf(stderr,
                     "scenario_suite: skipping shards=%d (procs=%d)\n",
                     shards, processors);
        continue;
      }
      const bool gang = gangFlag && shards > 1;
      const Leg leg = runLeg(scenario, processors, shards, gang);
      std::printf(
          "  shards=%d admitted=%" PRIu64 "/%" PRIu64
          " meanQ=%.3f floorViol=%" PRIu64 " gangAdmitted=%" PRIu64
          " latency us p50=%.1f p95=%.1f p99=%.1f\n",
          shards, leg.admitted, leg.jobs,
          leg.admitted == 0 ? 0.0
                            : leg.qualitySum /
                                  static_cast<double>(leg.admitted),
          leg.floorViolations, leg.gangAdmitted, leg.p50, leg.p95, leg.p99);
      legs.push_back(legJson(leg, scenario));

      // Paced flash-crowd row: the same stream through a live tprmd under
      // wall-clock burst pacing, at the sweep's last shard count.  The
      // sequential replay pins decision-identity against the leg above.
      if (scenario.params.kind == workload::ScenarioKind::FlashCrowd &&
          shards == sweep.back() && pacedDurationMs > 0) {
        const Leg paced = runPacedDaemonLeg(scenario, processors, shards,
                                            gang, pacedDurationMs);
        const bool identical = paced.ok && paced.jobs == leg.jobs &&
                               paced.fingerprint == leg.fingerprint;
        std::printf(
            "  paced shards=%d admitted=%" PRIu64 "/%" PRIu64
            " latency us p50=%.1f p99=%.1f decisions %s\n",
            shards, paced.admitted, paced.jobs, paced.p50, paced.p99,
            identical ? "identical" : "DIVERGED");
        if (!identical) ok = false;
        legs.push_back(legJson(paced, scenario));
      }
    }
  }

  JsonValue::Object doc;
  doc["benchmark"] = "scenario_suite";
  doc["procs"] = processors;
  doc["jobs_per_scenario"] = static_cast<std::int64_t>(jobs);
  doc["seed"] = static_cast<std::int64_t>(seed);
  doc["gang"] = gangFlag;
  doc["scenarios"] = JsonValue(std::move(legs));
  if (!outPath.empty()) {
    std::ofstream out(outPath);
    out << JsonValue(std::move(doc)).dump() << "\n";
    std::printf("scenario_suite: wrote %s\n", outPath.c_str());
  } else {
    std::printf("%s\n", JsonValue(std::move(doc)).dump().c_str());
  }
  // A paced-replay divergence is a correctness regression, not a perf blip.
  return ok ? 0 : 1;
}
