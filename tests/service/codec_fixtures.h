// Codec test fixtures shared by the JSON and binary codec suites:
// hand-built values covering every command, result kind and encoder edge
// case, and the frames and responses of the canonical scenario streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "workload/scenario.h"

namespace tprm::service::testutil {

// Hand-built values covering every command, result kind and the encoder's
// edge cases: quotes and control characters in names, omitted infinite
// deadlines, non-integral doubles, ids of 1e15 and more.
inline task::TunableJobSpec edgeSpec() {
  task::TunableJobSpec spec;
  spec.name = "edge \"quoted\" \\ tab\t nl\n ctl\x01 slash/ caf\xc3\xa9";
  spec.qualityComposition = task::QualityComposition::Minimum;
  task::Chain wide;
  wide.name = "wide";
  wide.bindings = {{"grain", 16}, {"Level", -3}, {"big", 1'000'000'000'000'000}};
  wide.tasks = {
      task::TaskSpec::rigid("split", 4, ticksFromUnits(2.5),
                            ticksFromUnits(100.125), 0.1),
      task::TaskSpec::malleableTask("solve", 8, ticksFromUnits(12.345678), 16,
                                    kTimeInfinity, 0.75),
  };
  task::Chain lean;
  lean.name = "";
  lean.tasks = {task::TaskSpec::rigid("only", 1, 1, kTimeInfinity)};
  spec.chains = {wide, lean};
  return spec;
}

inline std::vector<Request> edgeRequests() {
  std::vector<Request> out;
  Request negotiate;
  negotiate.id = 7;
  negotiate.command = Command::Negotiate;
  negotiate.payload = NegotiateRequest{edgeSpec(), ticksFromUnits(12.345678)};
  out.push_back(negotiate);

  Request cancel;
  cancel.version = kProtocolVersionV2;
  cancel.id = 1'000'000'000'000'000;
  cancel.command = Command::Cancel;
  cancel.payload = CancelRequest{std::uint64_t{1} << 60};
  out.push_back(cancel);

  Request resize;
  resize.id = 9;
  resize.command = Command::Resize;
  resize.payload = ResizeRequest{48, ticksFromUnits(125.5)};
  out.push_back(resize);

  for (const Command command : {Command::Stats, Command::Verify}) {
    Request plain;
    plain.id = 10 + static_cast<std::uint64_t>(command);
    plain.command = command;
    out.push_back(plain);
  }

  Request hello;
  hello.version = kProtocolVersionV2;
  hello.id = 1;
  hello.command = Command::Hello;
  hello.payload = HelloRequest{32};
  out.push_back(hello);
  return out;
}

inline std::vector<sched::TaskPlacement> edgePlacements() {
  return {{TimeInterval{0, ticksFromUnits(2.5)}, 4, ticksFromUnits(100.125)},
          {TimeInterval{ticksFromUnits(2.5), ticksFromUnits(14.845678)}, 8,
           kTimeInfinity}};
}

inline std::vector<Response> edgeResponses() {
  std::vector<Response> out;
  Response admitted;
  admitted.id = 7;
  admitted.ok = true;
  NegotiateResult granted;
  granted.admitted = true;
  granted.jobId = 1'000'000'000'000'000;
  granted.arrivalSeq = 9'007'199'254'740'992;
  granted.chainIndex = 1;
  granted.quality = 0.075;
  granted.release = ticksFromUnits(12.345678);
  granted.placements = edgePlacements();
  granted.bindings = {{"grain", 16}, {"Level", -3}};
  granted.chainsConsidered = 2;
  granted.chainsSchedulable = 2;
  admitted.result = granted;
  out.push_back(admitted);

  Response rejected;
  rejected.id = 8;
  rejected.ok = true;
  rejected.advertisedWindow = 4;
  NegotiateResult refused;
  refused.jobId = 12;
  refused.arrivalSeq = 13;
  refused.release = ticksFromUnits(0.5);
  refused.chainsConsidered = 3;
  rejected.result = refused;
  out.push_back(rejected);

  Response cancel;
  cancel.id = 9;
  cancel.ok = true;
  cancel.result = CancelResult{ticksFromUnits(37.5)};
  out.push_back(cancel);

  Response resize;
  resize.id = 10;
  resize.ok = true;
  resize.result = ResizeResult{64, 48, {1, 2, 1'000'000'000'000'000}, {5}, {}};
  out.push_back(resize);

  Response stats;
  stats.id = 11;
  stats.ok = true;
  stats.result = StatsResult{48, ticksFromUnits(1234.5), 40, 2, 45, 4};
  out.push_back(stats);

  Response verified;
  verified.id = 12;
  verified.ok = true;
  verified.result = VerifyResult{true, "", 0};
  out.push_back(verified);

  Response violated;
  violated.id = 13;
  violated.ok = true;
  violated.result = VerifyResult{false, "job 3 \"late\"\n", 2};
  out.push_back(violated);

  Response hello;
  hello.id = 1;
  hello.ok = true;
  hello.result = HelloResult{kProtocolVersionV2, 32};
  out.push_back(hello);

  ReshapeEvent demotion;
  demotion.jobId = 3;
  demotion.fromChain = 0;
  demotion.toChain = 1;
  demotion.fromQuality = 1.0;
  demotion.toQuality = 0.6;
  demotion.placements = edgePlacements();
  ReshapeEvent promotion = demotion;
  promotion.jobId = 4;
  promotion.promotion = true;
  promotion.fromChain = 1;
  promotion.toChain = 0;
  promotion.fromQuality = 0.6;
  promotion.toQuality = 1.0;
  promotion.placements = {};

  Response push;
  push.id = 0;
  push.ok = true;
  push.result = ReshapedPush{{demotion, promotion}};
  out.push_back(push);

  out.push_back(makeError(15, "bad_request", "field 'when' is \"out\" of range\t"));
  Response busy = makeError(16, "busy", "shard queue full");
  busy.advertisedWindow = 8;
  out.push_back(busy);
  return out;
}

/// FNV-1a over a sequence of frames, each followed by a NUL separator.
inline std::uint64_t fnv1a(const std::vector<std::string>& frames) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& frame : frames) {
    for (const char c : frame) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    hash *= 1099511628211ULL;  // the NUL separator (x ^ 0 == x)
  }
  return hash;
}

/// NEGOTIATE frames of one canonical scenario stream, ids and releases as
/// a client would send them.
inline std::vector<std::string> scenarioFrames(const std::string& name,
                                               std::size_t jobs) {
  const auto params = workload::scenarioByName(name, /*seed=*/1, jobs);
  const auto scenario = workload::ScenarioGenerator(*params).generate();
  std::vector<std::string> frames;
  for (const auto& job : scenario.jobs) {
    Request request;
    request.id = job.id;
    request.command = Command::Negotiate;
    request.payload = NegotiateRequest{job.spec, job.release};
    frames.push_back(encodeRequest(request));
  }
  return frames;
}

/// Responses a daemon could send for one scenario stream: admissions with
/// placements and bindings, rejections, RESHAPED pushes and busy errors.
inline std::vector<Response> scenarioResponses(const std::string& name,
                                               std::size_t jobs) {
  const auto params = workload::scenarioByName(name, /*seed=*/1, jobs);
  const auto scenario = workload::ScenarioGenerator(*params).generate();
  std::vector<Response> out;
  for (std::size_t i = 0; i < scenario.jobs.size(); ++i) {
    const auto& job = scenario.jobs[i];
    const auto& spec = job.spec;
    const std::size_t chainIndex = i % spec.chains.size();
    const auto& chain = spec.chains[chainIndex];
    std::vector<sched::TaskPlacement> placements;
    Time at = job.release;
    for (const auto& t : chain.tasks) {
      const Time deadline = t.relativeDeadline < kTimeInfinity
                                ? job.release + t.relativeDeadline
                                : kTimeInfinity;
      placements.push_back(
          {TimeInterval{at, at + t.request.duration}, t.request.processors,
           deadline});
      at += t.request.duration;
    }
    Response response;
    response.id = job.id;
    if (i % 11 == 10) {
      response = makeError(job.id, "busy", "shard queue full");
      response.advertisedWindow = static_cast<std::uint32_t>(1 + i % 8);
      out.push_back(response);
      continue;
    }
    response.ok = true;
    if (i % 7 == 6) {
      ReshapeEvent event;
      event.jobId = job.id;
      event.promotion = i % 2 == 0;
      event.fromChain = chainIndex;
      event.toChain = (chainIndex + 1) % spec.chains.size();
      event.fromQuality = chain.quality(spec.qualityComposition);
      event.toQuality =
          spec.chains[event.toChain].quality(spec.qualityComposition);
      event.placements = placements;
      response.id = 0;
      response.result = ReshapedPush{{event}};
      out.push_back(response);
      continue;
    }
    NegotiateResult result;
    result.admitted = i % 3 != 0;
    result.jobId = job.id;
    result.arrivalSeq = i;
    result.release = job.release;
    result.chainsConsidered = static_cast<int>(spec.chains.size());
    result.chainsSchedulable = static_cast<int>(spec.chains.size() - i % 2);
    if (result.admitted) {
      result.chainIndex = chainIndex;
      result.quality = chain.quality(spec.qualityComposition);
      result.placements = placements;
      result.bindings = chain.bindings;
    }
    response.result = result;
    out.push_back(response);
  }
  return out;
}

}  // namespace tprm::service::testutil
