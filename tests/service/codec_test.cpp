// Wire codec tests: frames pinned byte for byte, round trips and the
// canonical-form fixpoint over every scenario family and hand-built edge
// cases, and a mutation corpus that must never abort the decoders.
//
// The pinned frames and digests were captured from the tree-based codec
// this streaming one replaced; tprmd wire traces (--record-out) checksum
// these bytes, so any change to them is a wire change.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "codec_fixtures.h"
#include "common/json.h"
#include "service/protocol.h"
#include "taskmodel/spec_io.h"
#include "workload/scenario.h"

namespace tprm::service {
namespace {

using testutil::edgeRequests;
using testutil::edgeResponses;
using testutil::edgeSpec;
using testutil::fnv1a;
using testutil::scenarioFrames;
using testutil::scenarioResponses;

// Request frames of edgeRequests(), in order.
const char* const kGoldenRequests[] = {
    // negotiate
    R"json({
  "cmd": "NEGOTIATE",
  "id": 7,
  "release": 12.345677999999999,
  "spec": {
    "chains": [
      {
        "bindings": {
          "Level": -3,
          "big": 1000000000000000,
          "grain": 16
        },
        "name": "wide",
        "tasks": [
          {
            "deadline": 100.125,
            "duration": 2.5,
            "name": "split",
            "processors": 4,
            "quality": 0.10000000000000001
          },
          {
            "duration": 12.345677999999999,
            "maxConcurrency": 16,
            "name": "solve",
            "processors": 8,
            "quality": 0.75
          }
        ]
      },
      {
        "name": "",
        "tasks": [
          {
            "duration": 9.9999999999999995e-07,
            "name": "only",
            "processors": 1
          }
        ]
      }
    ],
    "name": "edge \"quoted\" \\ tab\t nl\n ctl\u0001 slash/ caf)json"
    "\xc3\xa9"
    R"json(",
    "qualityComposition": "minimum"
  },
  "v": 1
})json",
    // cancel
    R"json({
  "cmd": "CANCEL",
  "id": 1000000000000000,
  "jobId": 1.152921504606847e+18,
  "v": 2
})json",
    // resize
    R"json({
  "cmd": "RESIZE",
  "id": 9,
  "processors": 48,
  "v": 1,
  "when": 125.5
})json",
    // stats
    R"json({
  "cmd": "STATS",
  "id": 13,
  "v": 1
})json",
    // verify
    R"json({
  "cmd": "VERIFY",
  "id": 14,
  "v": 1
})json",
    // hello
    R"json({
  "cmd": "HELLO",
  "id": 1,
  "v": 2,
  "window": 32
})json",
};

// Response frames of edgeResponses(), in order.
const char* const kGoldenResponses[] = {
    // negotiate admitted
    R"json({
  "cmd": "NEGOTIATE",
  "id": 7,
  "ok": true,
  "result": {
    "admitted": true,
    "arrivalSeq": 9007199254740992,
    "bindings": {
      "Level": -3,
      "grain": 16
    },
    "chainIndex": 1,
    "chainsConsidered": 2,
    "chainsSchedulable": 2,
    "jobId": 1000000000000000,
    "placements": [
      {
        "begin": 0,
        "deadline": 100.125,
        "end": 2.5,
        "processors": 4
      },
      {
        "begin": 2.5,
        "end": 14.845677999999999,
        "processors": 8
      }
    ],
    "quality": 0.074999999999999997,
    "release": 12.345677999999999
  }
})json",
    // negotiate rejected
    R"json({
  "cmd": "NEGOTIATE",
  "id": 8,
  "ok": true,
  "result": {
    "admitted": false,
    "arrivalSeq": 13,
    "chainsConsidered": 3,
    "chainsSchedulable": 0,
    "jobId": 12,
    "release": 0.5
  },
  "window": 4
})json",
    // cancel
    R"json({
  "cmd": "CANCEL",
  "id": 9,
  "ok": true,
  "result": {
    "freed": 37.5
  }
})json",
    // resize
    R"json({
  "cmd": "RESIZE",
  "id": 10,
  "ok": true,
  "result": {
    "dropped": [],
    "kept": [
      1,
      2,
      1000000000000000
    ],
    "processorsAfter": 48,
    "processorsBefore": 64,
    "reconfigured": [
      5
    ]
  }
})json",
    // stats
    R"json({
  "cmd": "STATS",
  "id": 11,
  "ok": true,
  "result": {
    "admitted": 40,
    "clock": 1234.5,
    "commandsExecuted": 45,
    "processors": 48,
    "rejected": 2,
    "shards": 4
  }
})json",
    // verify ok
    R"json({
  "cmd": "VERIFY",
  "id": 12,
  "ok": true,
  "result": {
    "ok": true,
    "violations": 0
  }
})json",
    // verify failed
    R"json({
  "cmd": "VERIFY",
  "id": 13,
  "ok": true,
  "result": {
    "firstViolation": "job 3 \"late\"\n",
    "ok": false,
    "violations": 2
  }
})json",
    // hello
    R"json({
  "cmd": "HELLO",
  "id": 1,
  "ok": true,
  "result": {
    "version": 2,
    "window": 32
  }
})json",
    // reshaped push
    R"json({
  "cmd": "RESHAPED",
  "id": 0,
  "ok": true,
  "result": {
    "events": [
      {
        "fromChain": 0,
        "fromQuality": 1,
        "jobId": 3,
        "placements": [
          {
            "begin": 0,
            "deadline": 100.125,
            "end": 2.5,
            "processors": 4
          },
          {
            "begin": 2.5,
            "end": 14.845677999999999,
            "processors": 8
          }
        ],
        "promotion": false,
        "toChain": 1,
        "toQuality": 0.59999999999999998
      },
      {
        "fromChain": 1,
        "fromQuality": 0.59999999999999998,
        "jobId": 4,
        "placements": [],
        "promotion": true,
        "toChain": 0,
        "toQuality": 1
      }
    ]
  }
})json",
    // bad_request error
    R"json({
  "error": {
    "code": "bad_request",
    "message": "field 'when' is \"out\" of range\t"
  },
  "id": 15,
  "ok": false
})json",
    // busy error with window
    R"json({
  "error": {
    "code": "busy",
    "message": "shard queue full"
  },
  "id": 16,
  "ok": false,
  "window": 8
})json",
};

const char* const kGoldenSpec =
    R"json({
  "chains": [
    {
      "bindings": {
        "Level": -3,
        "big": 1000000000000000,
        "grain": 16
      },
      "name": "wide",
      "tasks": [
        {
          "deadline": 100.125,
          "duration": 2.5,
          "name": "split",
          "processors": 4,
          "quality": 0.10000000000000001
        },
        {
          "duration": 12.345677999999999,
          "maxConcurrency": 16,
          "name": "solve",
          "processors": 8,
          "quality": 0.75
        }
      ]
    },
    {
      "name": "",
      "tasks": [
        {
          "duration": 9.9999999999999995e-07,
          "name": "only",
          "processors": 1
        }
      ]
    }
  ],
  "name": "edge \"quoted\" \\ tab\t nl\n ctl\u0001 slash/ caf)json"
    "\xc3\xa9"
    R"json(",
  "qualityComposition": "minimum"
})json";

// FNV-1a digests of the 500-job seed-1 streams of each scenario family:
// scenarioFrames() and the encoded scenarioResponses().
struct StreamDigest {
  const char* family;
  std::uint64_t requests;
  std::uint64_t responses;
};

constexpr StreamDigest kStreamDigests[] = {
    {"diurnal", 0x8a9ff0645f2039abULL, 0xd8c6af4984c9c30bULL},
    {"flash-crowd", 0x075e5fc702b2ed67ULL, 0xd9696068b5836303ULL},
    {"heavy-tailed", 0xecd00a618e995763ULL, 0x46ad6f906636034cULL},
    {"multi-tenant", 0xb19005ee4810524bULL, 0x60e985ba352f7c4bULL},
};

constexpr std::size_t kDigestJobs = 500;

TEST(Codec, GoldenRequestFramesAreByteIdentical) {
  const auto requests = edgeRequests();
  ASSERT_EQ(requests.size(), std::size(kGoldenRequests));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(encodeRequest(requests[i]), kGoldenRequests[i]) << i;
  }
}

TEST(Codec, GoldenResponseFramesAreByteIdentical) {
  const auto responses = edgeResponses();
  ASSERT_EQ(responses.size(), std::size(kGoldenResponses));
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(encodeResponse(responses[i]), kGoldenResponses[i]) << i;
  }
}

TEST(Codec, GoldenSpecFileIsByteIdentical) {
  EXPECT_EQ(task::toJson(edgeSpec()), kGoldenSpec);
}

TEST(Codec, ScenarioStreamsKeepTheirBytes) {
  for (const auto& digest : kStreamDigests) {
    EXPECT_EQ(fnv1a(scenarioFrames(digest.family, kDigestJobs)),
              digest.requests)
        << digest.family;
    std::vector<std::string> frames;
    for (const auto& response :
         scenarioResponses(digest.family, kDigestJobs)) {
      frames.push_back(encodeResponse(response));
    }
    EXPECT_EQ(fnv1a(frames), digest.responses) << digest.family;
  }
}

// The client's send path encodes straight into its output buffer; those
// entry points must produce the pinned bytes too.
TEST(Codec, AppendedRequestsKeepTheirBytes) {
  for (const auto& digest : kStreamDigests) {
    const auto params =
        workload::scenarioByName(digest.family, /*seed=*/1, kDigestJobs);
    const auto scenario = workload::ScenarioGenerator(*params).generate();
    std::vector<std::string> frames;
    for (const auto& job : scenario.jobs) {
      std::string frame = "kept";
      appendNegotiateRequest(frame, job.id, kProtocolVersion, job.spec,
                             job.release);
      ASSERT_EQ(frame.substr(0, 4), "kept");
      frames.push_back(frame.substr(4));
    }
    EXPECT_EQ(fnv1a(frames), digest.requests) << digest.family;
  }
  for (const auto& request : edgeRequests()) {
    std::string frame;
    appendRequest(frame, request);
    EXPECT_EQ(frame, encodeRequest(request));
  }
}

/// decode(encode(x)) == x, and the frame is its own canonical form:
/// parsing it into a tree and dumping that tree gives the same bytes.
void expectRoundTrip(const Request& request) {
  const auto frame = encodeRequest(request);
  const auto decoded = decodeRequest(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error << "\n" << frame;
  EXPECT_EQ(*decoded.request, request) << frame;
  const auto tree = parseJson(frame);
  ASSERT_TRUE(tree.ok()) << tree.error;
  EXPECT_EQ(tree.value->dump(), frame);
}

void expectRoundTrip(const Response& response) {
  const auto frame = encodeResponse(response);
  const auto decoded = decodeResponse(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error << "\n" << frame;
  EXPECT_EQ(*decoded.response, response) << frame;
  const auto tree = parseJson(frame);
  ASSERT_TRUE(tree.ok()) << tree.error;
  EXPECT_EQ(tree.value->dump(), frame);
}

TEST(Codec, EdgeCasesRoundTripInCanonicalForm) {
  for (const auto& request : edgeRequests()) expectRoundTrip(request);
  for (const auto& response : edgeResponses()) expectRoundTrip(response);
  const auto spec = task::toJson(edgeSpec());
  const auto parsed = task::jobSpecFromJson(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(*parsed.spec, edgeSpec());
}

TEST(Codec, ScenarioStreamsRoundTripInCanonicalForm) {
  for (const auto& family : workload::scenarioNames()) {
    const auto params = workload::scenarioByName(family, /*seed=*/3, 300);
    ASSERT_TRUE(params.has_value()) << family;
    for (const auto& job : workload::ScenarioGenerator(*params).generate().jobs) {
      Request request;
      request.id = job.id;
      request.command = Command::Negotiate;
      request.payload = NegotiateRequest{job.spec, job.release};
      expectRoundTrip(request);
    }
    for (const auto& response : scenarioResponses(family, 300)) {
      expectRoundTrip(response);
    }
  }
}

// Every prefix and every single-bit flip of a real NEGOTIATE frame and a
// real admitted NEGOTIATE response decodes to a value or to an error, never
// aborts; whatever decodes re-encodes to a frame that decodes to the same
// value.
TEST(Codec, TruncatedAndBitFlippedFramesNeverAbort) {
  const auto requestFrame = scenarioFrames("flash-crowd", 1).front();
  const auto responses = scenarioResponses("flash-crowd", 2);
  ASSERT_TRUE(std::get<NegotiateResult>(responses[1].result).admitted);
  const auto responseFrame = encodeResponse(responses[1]);

  int decoded = 0;
  int rejected = 0;
  const auto probeRequest = [&](const std::string& frame) {
    const auto result = decodeRequest(frame);
    if (!result.ok()) {
      ++rejected;
      EXPECT_FALSE(result.error.empty());
      return;
    }
    ++decoded;
    const auto again = decodeRequest(encodeRequest(*result.request));
    ASSERT_TRUE(again.ok()) << again.error << "\n" << frame;
    EXPECT_EQ(*again.request, *result.request) << frame;
  };
  const auto probeResponse = [&](const std::string& frame) {
    const auto result = decodeResponse(frame);
    if (!result.ok()) {
      ++rejected;
      EXPECT_FALSE(result.error.empty());
      return;
    }
    ++decoded;
    const auto again = decodeResponse(encodeResponse(*result.response));
    ASSERT_TRUE(again.ok()) << again.error << "\n" << frame;
    EXPECT_EQ(*again.response, *result.response) << frame;
  };
  for (std::size_t n = 0; n < requestFrame.size(); ++n) {
    probeRequest(requestFrame.substr(0, n));
  }
  for (std::size_t n = 0; n < responseFrame.size(); ++n) {
    probeResponse(responseFrame.substr(0, n));
  }
  for (std::size_t i = 0; i < requestFrame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = requestFrame;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      probeRequest(flipped);
    }
  }
  for (std::size_t i = 0; i < responseFrame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = responseFrame;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      probeResponse(flipped);
    }
  }
  // Non-vacuity: whitespace and string flips still decode, the rest not.
  EXPECT_GT(decoded, 100);
  EXPECT_GT(rejected, 1000);
}

}  // namespace
}  // namespace tprm::service
