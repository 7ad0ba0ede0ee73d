// Engineering microbenchmarks (google-benchmark): the hot paths of the
// arbitrator, the tprmd wire codec and the Calypso runtime.  Not part of the paper's evaluation;
// used to keep the 10,000-job figure sweeps fast and to quantify runtime
// overheads.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "calypso/runtime.h"
#include "common/json.h"
#include "common/rng.h"
#include "elastic/reshaper.h"
#include "qos/sharded.h"
#include "resource/availability_profile.h"
#include "resource/reference_profile.h"
#include "resource/reservation_ledger.h"
#include "sched/greedy_arbitrator.h"
#include "service/protocol.h"
#include "sim/engine.h"
#include "workload/fig4.h"
#include "workload/scenario.h"

namespace {

using namespace tprm;

// Drives identical reservation sequences into the flat and the reference
// profile (same Rng seed, and minAvailable agrees between the two), so the
// before/after benchmarks below probe byte-identical step functions.
template <typename Profile>
void fragmentProfile(Profile& profile, std::size_t targetSegments) {
  Rng rng(7);
  Time t = 0;
  while (profile.segmentCount() < targetSegments) {
    const Time b = t + rng.uniformInt(5, 15);
    const TimeInterval iv{b, b + rng.uniformInt(3, 9)};
    const int procs = static_cast<int>(rng.uniformInt(1, 4));
    if (profile.minAvailable(iv) >= procs) profile.reserve(iv, procs);
    t = b;
  }
}

void BM_ProfileReserveRelease(benchmark::State& state) {
  resource::AvailabilityProfile profile(64);
  Rng rng(1);
  Time clock = 0;
  for (auto _ : state) {
    clock += 5;
    profile.discardBefore(clock);
    const Time b = clock + rng.uniformInt(0, 50);
    const TimeInterval iv{b, b + rng.uniformInt(1, 100)};
    const int procs = static_cast<int>(rng.uniformInt(1, 8));
    if (profile.minAvailable(iv) >= procs) {
      profile.reserve(iv, procs);
    }
    benchmark::DoNotOptimize(profile.segmentCount());
  }
}
BENCHMARK(BM_ProfileReserveRelease);

void BM_FindEarliestFit(benchmark::State& state) {
  resource::AvailabilityProfile profile(64);
  Rng rng(2);
  // Fragmented profile with ~64 segments.
  for (int i = 0; i < 64; ++i) {
    const Time b = rng.uniformInt(0, 2000);
    const TimeInterval iv{b, b + rng.uniformInt(1, 80)};
    const int procs = static_cast<int>(rng.uniformInt(1, 4));
    if (profile.minAvailable(iv) >= procs) profile.reserve(iv, procs);
  }
  for (auto _ : state) {
    const Time earliest = rng.uniformInt(0, 1000);
    benchmark::DoNotOptimize(
        profile.findEarliestFit(earliest, 50, 16, kTimeInfinity));
  }
}
BENCHMARK(BM_FindEarliestFit);

// --- Flat-profile fast path: before/after pairs -----------------------------
//
// The `...Reference` variants measure the pre-flat-vector implementation
// (std::map segments, copy-on-use trial placement) on the same step
// function; the unsuffixed/`...Flat` variants measure the production path
// (flat sorted vector, undo-log trial, block-maxima skip index).  Their
// ratio is the speedup reported in EXPERIMENTS.md and BENCH_sched.json.

void BM_FragmentedFitFlat(benchmark::State& state) {
  resource::AvailabilityProfile profile(64);
  fragmentProfile(profile, static_cast<std::size_t>(state.range(0)));
  Rng rng(11);
  for (auto _ : state) {
    const Time earliest = rng.uniformInt(0, 500);
    benchmark::DoNotOptimize(
        profile.findEarliestFit(earliest, 40, 62, kTimeInfinity));
  }
}
BENCHMARK(BM_FragmentedFitFlat)->Arg(64)->Arg(256);

void BM_FragmentedFitReference(benchmark::State& state) {
  resource::ReferenceProfile profile(64);
  fragmentProfile(profile, static_cast<std::size_t>(state.range(0)));
  Rng rng(11);
  for (auto _ : state) {
    const Time earliest = rng.uniformInt(0, 500);
    benchmark::DoNotOptimize(
        profile.findEarliestFit(earliest, 40, 62, kTimeInfinity));
  }
}
BENCHMARK(BM_FragmentedFitReference)->Arg(64)->Arg(256);

// One admission: evaluate 6 candidate chains of 4 tasks each against a
// fragmented profile, discarding every speculative placement (the worst case
// for trial machinery — nothing is ever committed).
constexpr int kBenchChains = 6;
constexpr int kBenchTasksPerChain = 4;

template <typename Profile, typename HintedFit>
void placeBenchChain(Profile& profile, int chain, HintedFit&& fit) {
  Time earliest = 0;
  for (int k = 0; k < kBenchTasksPerChain; ++k) {
    const Time duration = 20 + 5 * chain;
    const int procs = 2 + (k % 3);
    const auto start = fit(profile, earliest, duration, procs);
    const TimeInterval iv{*start, *start + duration};
    profile.reserve(iv, procs);
    earliest = iv.end;
  }
}

void BM_AdmissionLoopFlat(benchmark::State& state) {
  resource::AvailabilityProfile profile(64);
  fragmentProfile(profile, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    resource::AvailabilityProfile::Trial trial(profile);
    for (int c = 0; c < kBenchChains; ++c) {
      resource::FitHint hint;
      placeBenchChain(profile, c,
                      [&hint](resource::AvailabilityProfile& p, Time earliest,
                              Time duration, int procs) {
                        return p.findEarliestFit(earliest, duration, procs,
                                                 kTimeInfinity, &hint);
                      });
      trial.rollback();
    }
    benchmark::DoNotOptimize(profile.segmentCount());
    // ~Trial: already rolled back; the profile is unchanged across iterations.
  }
}
BENCHMARK(BM_AdmissionLoopFlat)->Arg(64)->Arg(256);

void BM_AdmissionLoopReference(benchmark::State& state) {
  resource::ReferenceProfile profile(64);
  fragmentProfile(profile, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (int c = 0; c < kBenchChains; ++c) {
      resource::ReferenceProfile scratch = profile;  // copy-on-use trial
      placeBenchChain(scratch, c,
                      [](resource::ReferenceProfile& p, Time earliest,
                         Time duration, int procs) {
                        return p.findEarliestFit(earliest, duration, procs,
                                                 kTimeInfinity);
                      });
      benchmark::DoNotOptimize(scratch.segmentCount());
    }
  }
}
BENCHMARK(BM_AdmissionLoopReference)->Arg(64)->Arg(256);

void BM_MaximalHoles(benchmark::State& state) {
  resource::AvailabilityProfile profile(64);
  Rng rng(3);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const Time b = rng.uniformInt(0, 2000);
    const TimeInterval iv{b, b + rng.uniformInt(1, 80)};
    const int procs = static_cast<int>(rng.uniformInt(1, 4));
    if (profile.minAvailable(iv) >= procs) profile.reserve(iv, procs);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.maximalHoles(TimeInterval{0, 2500}));
  }
}
BENCHMARK(BM_MaximalHoles)->Arg(16)->Arg(64)->Arg(256);

void BM_AdmitTunableJob(benchmark::State& state) {
  const auto spec =
      workload::makeFig4Job(workload::Fig4Params{}, workload::Fig4Shape::Tunable);
  const task::JobShape shape(spec);
  sched::GreedyArbitrator arbitrator;
  resource::AvailabilityProfile profile(16);
  Time release = 0;
  std::uint64_t id = 0;
  for (auto _ : state) {
    release += ticksFromUnits(30.0);
    profile.discardBefore(release);
    benchmark::DoNotOptimize(
        arbitrator.admit(task::JobView(id++, release, shape), profile));
  }
}
BENCHMARK(BM_AdmitTunableJob);

// Building the planner's form of a flash-crowd spec: Arg(0) rebuilds the
// thread's scratch shape in place (what every submit pays), Arg(1) adds
// the shared copy an admission stores.
void BM_BuildJobShape(benchmark::State& state) {
  const auto params = workload::scenarioByName("flash-crowd", 7, 64);
  const auto scenario = workload::ScenarioGenerator(*params).generate();
  const bool store = state.range(0) != 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& spec = scenario.jobs[next++ % scenario.jobs.size()].spec;
    const task::ScratchShape shape(spec);
    if (store) {
      benchmark::DoNotOptimize(std::make_shared<const task::JobShape>(*shape));
    } else {
      benchmark::DoNotOptimize(shape->chainCount());
    }
  }
}
BENCHMARK(BM_BuildJobShape)->Arg(0)->Arg(1);

// One greedy admission of a 6-chain x 4-task tunable job (the shapes of
// BM_AdmissionLoopFlat, no deadlines, so every chain is schedulable) against
// a fragmented 64-processor profile.  The winner's placements are released
// after each admission, so every iteration sees the same profile; the
// figure is one admission plus that release.
void BM_AdmitTunableJobFragmented(benchmark::State& state) {
  resource::AvailabilityProfile profile(64);
  fragmentProfile(profile, static_cast<std::size_t>(state.range(0)));
  task::JobInstance job;
  for (int c = 0; c < kBenchChains; ++c) {
    task::Chain chain;
    chain.name = 'c' + std::to_string(c);
    for (int k = 0; k < kBenchTasksPerChain; ++k) {
      chain.tasks.push_back(task::TaskSpec::rigid(
          't' + std::to_string(k), 2 + (k % 3), 20 + 5 * c, kTimeInfinity));
    }
    job.spec.chains.push_back(std::move(chain));
  }
  sched::GreedyArbitrator arbitrator;
  for (auto _ : state) {
    const auto decision = arbitrator.admit(job, profile);
    for (const auto& p : decision.schedule.placements) {
      profile.release(p.interval, p.processors);
    }
    benchmark::DoNotOptimize(decision.schedule.chainIndex);
  }
}
BENCHMARK(BM_AdmitTunableJobFragmented)->Arg(64)->Arg(256);

// The inproc-sharded mix: a heavy-tailed stream (twice the family's rate)
// with the canonical gold/silver/bronze tenant floors, each job keeping only
// the chains at or above its tenant's floor (gold jobs keep just their
// full-width chain, too wide for one shard), into a 4-shard, 40-processor
// arbitrator with spill and gang on.  One iteration is one submit; the
// arbitrator starts afresh, untimed, whenever the stream runs out.
const workload::Scenario& tenantFloorStream() {
  static const workload::Scenario scenario = [] {
    auto params = workload::scenarioByName("heavy-tailed", 1, 20000);
    params->baseRate *= 2.0;
    auto out = workload::ScenarioGenerator(*params).generate();
    out.tenants = workload::defaultTenants();
    double totalWeight = 0.0;
    for (const auto& tenant : out.tenants) totalWeight += tenant.weight;
    Rng rng(streamSeed(1, 0x7e1a47));
    for (auto& job : out.jobs) {
      double pick = rng.uniform01() * totalWeight;
      std::size_t chosen = out.tenants.size() - 1;
      for (std::size_t k = 0; k < out.tenants.size(); ++k) {
        pick -= out.tenants[k].weight;
        if (pick <= 0.0) {
          chosen = k;
          break;
        }
      }
      job.tenant = static_cast<int>(chosen);
      const double floor = out.tenants[chosen].qualityFloor;
      auto& chains = job.spec.chains;
      chains.erase(std::remove_if(chains.begin() + 1, chains.end(),
                                  [floor](const task::Chain& chain) {
                                    return chain.quality() < floor;
                                  }),
                   chains.end());
    }
    return out;
  }();
  return scenario;
}

std::unique_ptr<qos::ShardedArbitrator> inprocShardedArbitrator() {
  qos::ShardedOptions options;
  options.shards = 4;
  options.spill = true;
  options.gang = true;
  return std::make_unique<qos::ShardedArbitrator>(40, options);
}

void BM_ShardedSubmitStream(benchmark::State& state) {
  const auto& jobs = tenantFloorStream().jobs;
  auto arbitrator = inprocShardedArbitrator();
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == jobs.size()) {
      state.PauseTiming();
      arbitrator = inprocShardedArbitrator();
      next = 0;
      state.ResumeTiming();
    }
    const auto& job = jobs[next++];
    benchmark::DoNotOptimize(
        arbitrator->submit(arbitrator->reserveJobId(), job.spec, job.release));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedSubmitStream);

// The wire-elastic mix in process: a 6 000-job flash crowd into one
// 32-processor shard with the min-quality-loss Reshaper, cancelling the
// previous job after every tenth submit so promotions run too.  One
// iteration is one submit (and its cancel, if any); the arbitrator starts
// afresh, untimed, whenever the stream runs out.
void BM_ElasticSubmitStream(benchmark::State& state) {
  static const workload::Scenario scenario = [] {
    const auto params = workload::scenarioByName("flash-crowd", 1, 6000);
    return workload::ScenarioGenerator(*params).generate();
  }();
  const elastic::Reshaper reshaper(elastic::VictimPolicy::MinQualityLoss);
  const auto fresh = [&reshaper] {
    qos::ShardedOptions options;
    options.shards = 1;
    auto arbitrator = std::make_unique<qos::ShardedArbitrator>(32, options);
    arbitrator->attachReshapePolicy(&reshaper);
    return arbitrator;
  };
  auto arbitrator = fresh();
  std::vector<qos::QualityMove> moves;
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == scenario.jobs.size()) {
      state.PauseTiming();
      arbitrator = fresh();
      next = 0;
      state.ResumeTiming();
    }
    const auto& job = scenario.jobs[next];
    const std::uint64_t jobId = arbitrator->reserveJobId();
    moves.clear();
    benchmark::DoNotOptimize(arbitrator->submit(jobId, job.spec, job.release,
                                                nullptr, &moves));
    if (next % 10 == 9 && jobId > 0) {
      benchmark::DoNotOptimize(arbitrator->cancel(jobId - 1, &moves));
    }
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElasticSubmitStream);

// One gang admission — merged breakpoints, planning every chain over the
// aggregate availability, the two-phase reserve and commit — plus the
// cancel that undoes it, so every iteration sees the same profiles.  Four
// 10-processor shards each queue `range(0)` narrow jobs from time 0, so the
// profiles carry that many breakpoints; the gang job's chains (24 or 16
// processors) fit no single shard.
void BM_GangPlan(benchmark::State& state) {
  qos::ShardedOptions options;
  options.shards = 4;
  options.spill = false;
  options.gang = true;
  qos::ShardedArbitrator arbitrator(40, options);
  Rng rng(11);
  for (std::int64_t i = 0; i < 4 * state.range(0); ++i) {
    task::TunableJobSpec narrow;
    narrow.name = "narrow";
    task::Chain chain;
    chain.name = "only";
    chain.tasks = {task::TaskSpec::rigid(
        "t", static_cast<int>(rng.uniformInt(1, 6)),
        ticksFromUnits(static_cast<double>(rng.uniformInt(2, 12))),
        kTimeInfinity)};
    narrow.chains = {chain};
    (void)arbitrator.submit(arbitrator.reserveJobId(), narrow, 0);
  }
  task::TunableJobSpec gang;
  gang.name = "gang";
  for (const int width : {24, 16}) {
    task::Chain chain;
    chain.name = "w" + std::to_string(width);
    chain.tasks = {
        task::TaskSpec::rigid("a", width, ticksFromUnits(4.0), kTimeInfinity),
        task::TaskSpec::rigid("b", width / 2, ticksFromUnits(6.0),
                              kTimeInfinity, 0.8)};
    gang.chains.push_back(std::move(chain));
  }
  for (auto _ : state) {
    const std::uint64_t id = arbitrator.reserveJobId();
    const auto decision = arbitrator.submit(id, gang, 0);
    if (!decision.admitted) {
      state.SkipWithError("gang job rejected");
      break;
    }
    (void)arbitrator.cancel(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GangPlan)->Arg(16)->Arg(128);

// One elastic move's ledger bookkeeping — record a job's three entries, then
// annul them — on a ledger already holding `range(0)` entries of other
// jobs.  Annul visits only the job's own slots and compaction is amortized,
// so the per-iteration cost stays flat as the history grows.
void BM_LedgerAnnul(benchmark::State& state) {
  const auto prior = static_cast<std::uint64_t>(state.range(0));
  resource::ReservationLedger ledger(64);
  for (std::uint64_t job = 0; job < prior; ++job) {
    const auto begin = static_cast<Time>(job);
    ledger.add(resource::Reservation{job, 0, 0, {begin, begin + 10}, 1,
                                     kTimeInfinity});
  }
  const std::uint64_t mover = prior;
  std::vector<resource::ReservationLedger::Slot> slots;
  for (auto _ : state) {
    for (int k = 0; k < 3; ++k) {
      const Time begin = 100 * k;
      slots.push_back(ledger.add(resource::Reservation{
          mover, k, 0, {begin, begin + 50}, 2, kTimeInfinity}));
    }
    benchmark::DoNotOptimize(ledger.annul(mover, 0, slots));
  }
}
BENCHMARK(BM_LedgerAnnul)->Arg(1000)->Arg(10000)->Arg(100000);

// --- Wire codec: one flash-crowd stream (seed 1), each job as the NEGOTIATE
// request a client sends and as the admitted response tprmd sends back, in
// both payload encodings.  Each iteration codes one frame; the stream
// cycles.

struct CodecStream {
  std::vector<service::Request> requests;
  std::vector<service::Response> responses;
  std::vector<std::string> requestFrames;
  std::vector<std::string> responseFrames;
  std::vector<std::string> binaryRequestFrames;
  std::vector<std::string> binaryResponseFrames;
};

const CodecStream& flashCrowdStream() {
  static const CodecStream stream = [] {
    CodecStream s;
    const auto params = workload::scenarioByName("flash-crowd", 1, 2000);
    for (const auto& job : workload::ScenarioGenerator(*params).generate().jobs) {
      service::Request request;
      request.id = job.id;
      request.command = service::Command::Negotiate;
      request.payload = service::NegotiateRequest{job.spec, job.release};
      s.requestFrames.push_back(service::encodeRequest(request));
      s.binaryRequestFrames.push_back(service::encodeRequestBinary(request));
      s.requests.push_back(std::move(request));

      const auto& chain = job.spec.chains.front();
      service::NegotiateResult result;
      result.admitted = true;
      result.jobId = job.id;
      result.arrivalSeq = job.id;
      result.release = job.release;
      result.quality = chain.quality(job.spec.qualityComposition);
      result.bindings = chain.bindings;
      result.chainsConsidered = static_cast<int>(job.spec.chains.size());
      result.chainsSchedulable = result.chainsConsidered;
      Time at = job.release;
      for (const auto& t : chain.tasks) {
        result.placements.push_back(
            {TimeInterval{at, at + t.request.duration}, t.request.processors,
             t.relativeDeadline < kTimeInfinity ? job.release + t.relativeDeadline
                                                : kTimeInfinity});
        at += t.request.duration;
      }
      service::Response response;
      response.id = job.id;
      response.ok = true;
      response.result = std::move(result);
      s.responseFrames.push_back(service::encodeResponse(response));
      s.binaryResponseFrames.push_back(
          service::encodeResponseBinary(response));
      s.responses.push_back(std::move(response));
    }
    return s;
  }();
  return stream;
}

template <typename Item, typename Code>
void runCodec(benchmark::State& state, const std::vector<Item>& items,
              Code code) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(code(items[i]));
    if (++i == items.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EncodeRequest(benchmark::State& state) {
  runCodec(state, flashCrowdStream().requests, service::encodeRequest);
}
BENCHMARK(BM_EncodeRequest);

void BM_DecodeRequest(benchmark::State& state) {
  runCodec(state, flashCrowdStream().requestFrames, service::decodeRequest);
}
BENCHMARK(BM_DecodeRequest);

void BM_EncodeResponse(benchmark::State& state) {
  runCodec(state, flashCrowdStream().responses, service::encodeResponse);
}
BENCHMARK(BM_EncodeResponse);

void BM_DecodeResponse(benchmark::State& state) {
  runCodec(state, flashCrowdStream().responseFrames, service::decodeResponse);
}
BENCHMARK(BM_DecodeResponse);

void BM_EncodeRequestBinary(benchmark::State& state) {
  runCodec(state, flashCrowdStream().requests, service::encodeRequestBinary);
}
BENCHMARK(BM_EncodeRequestBinary);

void BM_DecodeRequestBinary(benchmark::State& state) {
  runCodec(state, flashCrowdStream().binaryRequestFrames,
           service::decodeRequestBinary);
}
BENCHMARK(BM_DecodeRequestBinary);

void BM_EncodeResponseBinary(benchmark::State& state) {
  runCodec(state, flashCrowdStream().responses, service::encodeResponseBinary);
}
BENCHMARK(BM_EncodeResponseBinary);

void BM_DecodeResponseBinary(benchmark::State& state) {
  runCodec(state, flashCrowdStream().binaryResponseFrames,
           service::decodeResponseBinary);
}
BENCHMARK(BM_DecodeResponseBinary);

// The two kernels under the codec.  BM_WriteNumber17: 64 wire tick values
// (times in paper units with six decimals, none integral) written as one
// compact array, so the figure per item is one "%.17g" number.
// BM_SkipRequestFrame: one request frame of the stream checked and skipped
// by the pull reader (the tokenizer cost without any decoder).
void BM_WriteNumber17(benchmark::State& state) {
  std::vector<double> values;
  std::mt19937_64 rng(17);
  for (int i = 0; i < 64; ++i) {
    values.push_back(
        static_cast<double>(rng() % 4'000'000'000'000 | 1) / 1e6);
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    JsonWriter w(out, JsonWriter::Style::Compact);
    w.beginArray();
    for (const double v : values) w.number(v);
    w.endArray();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_WriteNumber17);

void BM_SkipRequestFrame(benchmark::State& state) {
  runCodec(state, flashCrowdStream().requestFrames,
           [](const std::string& frame) {
             JsonReader reader(frame);
             return reader.skipValue() && reader.finish();
           });
}
BENCHMARK(BM_SkipRequestFrame);

void BM_SimulationThroughput(benchmark::State& state) {
  const auto jobs = workload::makeFig4PoissonStream(
      workload::Fig4Params{}, workload::Fig4Shape::Tunable, 30.0,
      static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    sched::GreedyArbitrator arbitrator;
    sim::SimulationConfig config;
    config.processors = 16;
    benchmark::DoNotOptimize(sim::runSimulation(jobs, arbitrator, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationThroughput)->Arg(1000)->Arg(10000);

void BM_CalypsoStepOverhead(benchmark::State& state) {
  calypso::Runtime runtime(
      calypso::RuntimeOptions{.workers = static_cast<int>(state.range(0))});
  calypso::SharedArray<int> out(64, 0);
  for (auto _ : state) {
    calypso::ParallelStep step;
    step.routine(64, [&](calypso::TaskContext& ctx) {
      ctx.write(out, static_cast<std::size_t>(ctx.number()), ctx.number());
    });
    benchmark::DoNotOptimize(runtime.run(step));
  }
}
BENCHMARK(BM_CalypsoStepOverhead)->Arg(1)->Arg(2)->Arg(4);

void BM_CalypsoWriteCommit(benchmark::State& state) {
  calypso::Runtime runtime(calypso::RuntimeOptions{.workers = 2});
  const auto writes = static_cast<std::size_t>(state.range(0));
  calypso::SharedArray<int> out(writes, 0);
  for (auto _ : state) {
    calypso::ParallelStep step;
    step.routine(2, [&](calypso::TaskContext& ctx) {
      const auto half = writes / 2;
      const auto base = static_cast<std::size_t>(ctx.number()) * half;
      for (std::size_t i = 0; i < half; ++i) {
        ctx.write(out, base + i, static_cast<int>(i));
      }
    });
    benchmark::DoNotOptimize(runtime.run(step));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(writes));
}
BENCHMARK(BM_CalypsoWriteCommit)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
