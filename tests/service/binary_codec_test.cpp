// Binary codec tests: frames pinned byte for byte, agreement with the JSON
// codec over every scenario family and the hand-built edge cases, the
// refusals of section 6 of docs/wire_protocol.md, and a mutation corpus
// that must never abort the decoder.  Whatever a binary frame decodes to
// must survive the JSON codec unchanged, so the two encodings carry the
// same values.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "codec_fixtures.h"
#include "service/protocol.h"
#include "workload/scenario.h"

namespace tprm::service {
namespace {

using testutil::edgeRequests;
using testutil::edgeResponses;
using testutil::scenarioResponses;

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

/// edgeRequests() plus a HELLO asking for binary frames.
std::vector<Request> goldenRequests() {
  auto requests = edgeRequests();
  Request hello = requests.back();
  hello.payload = HelloRequest{32, Encoding::Binary};
  requests.push_back(hello);
  return requests;
}

/// edgeResponses() plus a HELLO grant of binary frames.
std::vector<Response> goldenResponses() {
  auto responses = edgeResponses();
  Response hello;
  hello.id = 1;
  hello.ok = true;
  hello.result = HelloResult{kProtocolVersionV2, 32, Encoding::Binary};
  responses.push_back(hello);
  return responses;
}

// Request frames of goldenRequests(), in hex, in order.
const char* const kGoldenRequests[] = {
    // NEGOTIATE
    "010107000000000000004e61bc00000000002a00000065646765202271756f74"
    "656422205c2074616209206e6c0a2063746c0120736c6173682f20636166c3a9"
    "0102000000040000007769646503000000050000004c6576656cfdffffffffff"
    "ffff030000006269670080c6a47e8d030005000000677261696e100000000000"
    "0000020000000500000073706c697404000000a02526000000000048c9f70500"
    "0000009a9999999999b93f0005000000736f6c7665080000004e61bc00000000"
    "00ffffffffffffff1f000000000000e83f011000000000000000000000000100"
    "0000040000006f6e6c79010000000100000000000000ffffffffffffff1f0000"
    "00000000f03f00",
    // CANCEL
    "02020080c6a47e8d03000000000000000010",
    // RESIZE
    "030109000000000000003000000060fa7a0700000000",
    // STATS
    "04010d00000000000000",
    // VERIFY
    "05010e00000000000000",
    // HELLO
    "060201000000000000002000000000",
    // HELLO asking for binary
    "060201000000000000002000000001",
};

// Response frames of goldenResponses(), in hex, in order.
const char* const kGoldenResponses[] = {
    // NEGOTIATE admitted
    "01070000000000000000000000010080c6a47e8d030000000000000020004e61"
    "bc000000000002000000020000000100000000000000333333333333b33f0200"
    "00000000000000000000a0252600000000000400000048c9f70500000000a025"
    "260000000000ee86e2000000000008000000ffffffffffffff1f020000000500"
    "00004c6576656cfdffffffffffffff05000000677261696e1000000000000000",
    // NEGOTIATE rejected, window re-advertised
    "01080000000000000004000000000c000000000000000d0000000000000020a1"
    "0700000000000300000000000000",
    // CANCEL
    "0209000000000000000000000060343c0200000000",
    // RESIZE
    "030a000000000000000000000040000000300000000300000001000000000000"
    "0002000000000000000080c6a47e8d0300010000000500000000000000000000"
    "00",
    // STATS
    "040b000000000000000000000030000000a0f994490000000028000000000000"
    "0002000000000000002d0000000000000004000000",
    // VERIFY ok
    "050c0000000000000000000000010000000000000000",
    // VERIFY violated
    "050d000000000000000000000000020000000d0000006a6f62203320226c6174"
    "65220a",
    // HELLO
    "06010000000000000000000000020000002000000000",
    // RESHAPED push
    "0700000000000000000000000002000000030000000000000000000000000000"
    "00000100000000000000000000000000f03f333333333333e33f020000000000"
    "000000000000a0252600000000000400000048c9f70500000000a02526000000"
    "0000ee86e2000000000008000000ffffffffffffff1f04000000000000000101"
    "000000000000000000000000000000333333333333e33f000000000000f03f00"
    "000000",
    // bad_request error
    "000f00000000000000000000000b0000006261645f726571756573741f000000"
    "6669656c6420277768656e2720697320226f757422206f662072616e676509",
    // busy error, window re-advertised
    "0010000000000000000800000004000000627573791000000073686172642071"
    "756575652066756c6c",
    // HELLO granting binary
    "06010000000000000000000000020000002000000001",
};

TEST(BinaryCodec, GoldenRequestFramesAreByteExact) {
  const auto requests = goldenRequests();
  ASSERT_EQ(requests.size(), std::size(kGoldenRequests));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(hex(encodeRequestBinary(requests[i])), kGoldenRequests[i]) << i;
  }
}

TEST(BinaryCodec, GoldenResponseFramesAreByteExact) {
  const auto responses = goldenResponses();
  ASSERT_EQ(responses.size(), std::size(kGoldenResponses));
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(hex(encodeResponseBinary(responses[i])), kGoldenResponses[i])
        << i;
  }
}

/// The binary frame of `request` decodes to exactly what its JSON frame
/// decodes to.
void expectSameAsJson(const Request& request) {
  const auto frame = encodeRequestBinary(request);
  const auto binary = decodeRequestBinary(frame);
  const auto json = decodeRequest(encodeRequest(request));
  ASSERT_TRUE(json.ok()) << json.error;
  ASSERT_TRUE(binary.ok()) << binary.error;
  EXPECT_EQ(*binary.request, *json.request);
  EXPECT_EQ(encodeRequestBinary(*binary.request), frame);
}

void expectSameAsJson(const Response& response) {
  const auto frame = encodeResponseBinary(response);
  const auto binary = decodeResponseBinary(frame);
  const auto json = decodeResponse(encodeResponse(response));
  ASSERT_TRUE(json.ok()) << json.error;
  ASSERT_TRUE(binary.ok()) << binary.error;
  EXPECT_EQ(*binary.response, *json.response);
  EXPECT_EQ(encodeResponseBinary(*binary.response), frame);
}

TEST(BinaryCodec, EdgeValuesDecodeToTheirJsonValue) {
  for (const auto& request : goldenRequests()) expectSameAsJson(request);
  for (const auto& response : goldenResponses()) expectSameAsJson(response);
}

// Every frame of the four scenario families, as codec_equivalence_test.cpp
// walks them: NEGOTIATE requests (through both request encoders) and the
// responses a daemon could send for them.
TEST(BinaryCodec, ScenarioFramesDecodeToTheirJsonValue) {
  for (const std::string family :
       {"diurnal", "flash-crowd", "heavy-tailed", "multi-tenant"}) {
    const auto params = workload::scenarioByName(family, /*seed=*/1, 500);
    ASSERT_TRUE(params.has_value()) << family;
    for (const auto& job : workload::ScenarioGenerator(*params).generate().jobs) {
      Request request;
      request.id = job.id;
      request.version = kProtocolVersionV2;
      request.command = Command::Negotiate;
      request.payload = NegotiateRequest{job.spec, job.release};
      expectSameAsJson(request);
      std::string appended = "kept";
      appendNegotiateRequestBinary(appended, job.id, kProtocolVersionV2,
                                   job.spec, job.release);
      ASSERT_EQ(appended.substr(0, 4), "kept");
      EXPECT_EQ(appended.substr(4), encodeRequestBinary(request));
    }
    for (const auto& response : scenarioResponses(family, 500)) {
      expectSameAsJson(response);
    }
  }
}

// A decoded binary frame must re-encode to a JSON frame that decodes to
// the same value (and to the same binary frame).
void expectCarriedByJson(const Request& request, const std::string& frame) {
  const auto json = decodeRequest(encodeRequest(request));
  ASSERT_TRUE(json.ok()) << json.error << "\n" << hex(frame);
  EXPECT_EQ(*json.request, request) << hex(frame);
  const auto again = decodeRequestBinary(encodeRequestBinary(request));
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(*again.request, request);
}

void expectCarriedByJson(const Response& response, const std::string& frame) {
  const auto json = decodeResponse(encodeResponse(response));
  ASSERT_TRUE(json.ok()) << json.error << "\n" << hex(frame);
  EXPECT_EQ(*json.response, response) << hex(frame);
  const auto again = decodeResponseBinary(encodeResponseBinary(response));
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(*again.response, response);
}

struct ProbeCounts {
  int decoded = 0;
  int rejected = 0;
};

void probeRequest(const std::string& frame, ProbeCounts* counts) {
  const auto result = decodeRequestBinary(frame);
  if (!result.ok()) {
    ++counts->rejected;
    EXPECT_FALSE(result.error.empty());
    return;
  }
  ++counts->decoded;
  expectCarriedByJson(*result.request, frame);
}

void probeResponse(const std::string& frame, ProbeCounts* counts) {
  const auto result = decodeResponseBinary(frame);
  if (!result.ok()) {
    ++counts->rejected;
    EXPECT_FALSE(result.error.empty());
    return;
  }
  ++counts->decoded;
  expectCarriedByJson(*result.response, frame);
}

// Every prefix and every single-bit flip of real frames: a NEGOTIATE, an
// admitted NEGOTIATE response and a RESHAPED push.
TEST(BinaryCodec, TruncatedAndBitFlippedFramesNeverAbort) {
  const auto requests = goldenRequests();
  const auto responses = goldenResponses();
  const std::vector<std::string> requestFrames = {
      encodeRequestBinary(requests[0]), encodeRequestBinary(requests[2])};
  const std::vector<std::string> responseFrames = {
      encodeResponseBinary(responses[0]), encodeResponseBinary(responses[4]),
      encodeResponseBinary(responses[8])};
  ProbeCounts counts;
  const auto mutate = [&](const std::string& frame, auto probe) {
    for (std::size_t n = 0; n < frame.size(); ++n) {
      probe(frame.substr(0, n), &counts);
    }
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = frame;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        probe(flipped, &counts);
      }
    }
  };
  for (const auto& frame : requestFrames) mutate(frame, probeRequest);
  for (const auto& frame : responseFrames) mutate(frame, probeResponse);
  // Non-vacuity: flips inside names, counts of equal value and most
  // numbers still decode; truncations and tag flips do not.
  EXPECT_GT(counts.decoded, 1000);
  EXPECT_GT(counts.rejected, 1000);
}

TEST(BinaryCodec, RandomFramesNeverAbort) {
  std::mt19937_64 rng(20261020);
  ProbeCounts counts;
  for (int round = 0; round < 20000; ++round) {
    std::string frame(rng() % 64, '\0');
    for (auto& c : frame) c = static_cast<char>(rng());
    // Lead with a valid tag (and version) half the time, so the corpus
    // reaches the bodies.
    if (round % 2 == 0 && frame.size() >= 2) {
      frame[0] = static_cast<char>(rng() % 8);
      frame[1] = static_cast<char>(1 + rng() % 2);
    }
    probeRequest(frame, &counts);
    probeResponse(frame, &counts);
  }
  EXPECT_GT(counts.rejected, 1000);
}

/// Writes `value`'s bytes over `frame` at `offset`.
template <typename T>
void patch(std::string* frame, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof value, frame->size());
  std::memcpy(frame->data() + offset, &value, sizeof value);
}

// Envelope offsets: a request is tag, version, id; a response tag, id,
// window.
constexpr std::size_t kRequestBody = 1 + 1 + 8;
constexpr std::size_t kResponseBody = 1 + 8 + 4;

TEST(BinaryCodec, RefusesWhatJsonCannotCarry) {
  const auto requests = goldenRequests();
  const auto responses = goldenResponses();

  // Trailing bytes.
  auto stats = encodeRequestBinary(requests[3]);
  ASSERT_TRUE(decodeRequestBinary(stats).ok());
  const auto trailing = decodeRequestBinary(stats + '\0');
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.error.find("trailing"), std::string::npos)
      << trailing.error;

  // Ids the JSON codec rounds or cannot write.
  for (const std::uint64_t id :
       {(std::uint64_t{1} << 53) + 1, std::uint64_t{1} << 63,
        ~std::uint64_t{0}}) {
    std::string frame = stats;
    patch(&frame, 2, id);
    EXPECT_FALSE(decodeRequestBinary(frame).ok()) << id;
  }
  // 2^60 is a double exactly: carried.
  {
    std::string frame = stats;
    patch(&frame, 2, std::uint64_t{1} << 60);
    EXPECT_TRUE(decodeRequestBinary(frame).ok());
  }

  // Unknown tags, versions and encodings.
  {
    std::string frame = stats;
    frame[0] = 9;
    EXPECT_FALSE(decodeRequestBinary(frame).ok());
    frame = stats;
    frame[1] = 3;
    EXPECT_FALSE(decodeRequestBinary(frame).ok());
    frame = encodeRequestBinary(requests.back());
    frame.back() = 2;
    EXPECT_FALSE(decodeRequestBinary(frame).ok());
    frame = encodeRequestBinary(requests.back());
    patch(&frame, kRequestBody, std::uint32_t{0});
    EXPECT_FALSE(decodeRequestBinary(frame).ok()) << "window 0";
  }

  // A RESIZE's time past the tick range, and one the unit conversion
  // cannot bring back exactly.
  {
    const auto resize = encodeRequestBinary(requests[2]);
    for (const Time when : {kTimeInfinity, (Time{1} << 60) + 1}) {
      std::string frame = resize;
      patch(&frame, kRequestBody + 4, when);
      EXPECT_FALSE(decodeRequestBinary(frame).ok()) << when;
    }
  }

  // Non-finite numbers: a NEGOTIATE result's quality.
  {
    const auto admitted = encodeResponseBinary(responses[0]);
    // admitted, jobId, arrivalSeq, release, two counts, chainIndex.
    const std::size_t quality = kResponseBody + 1 + 8 + 8 + 8 + 4 + 4 + 8;
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      std::string frame = admitted;
      patch(&frame, quality, bad);
      const auto decoded = decodeResponseBinary(frame);
      ASSERT_FALSE(decoded.ok());
      EXPECT_NE(decoded.error.find("not finite"), std::string::npos)
          << decoded.error;
    }
    // A boolean other than 0 or 1.
    std::string frame = admitted;
    frame[kResponseBody] = 2;
    EXPECT_FALSE(decodeResponseBinary(frame).ok());
  }

  // A count larger than the bytes left: refused before anything is
  // allocated for it.
  {
    std::string frame = encodeResponseBinary(responses[3]);  // RESIZE
    patch(&frame, kResponseBody + 8, std::uint32_t{0xffffffff});
    const auto decoded = decodeResponseBinary(frame);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.error.find("exceeds"), std::string::npos)
        << decoded.error;
  }

  // A VERIFY that passed yet names a violation.
  {
    Response verified = responses[5];
    std::get<VerifyResult>(verified.result).firstViolation = "x";
    // The encoder drops it, as JSON does; a hand-made frame carrying it is
    // refused.
    std::string frame = encodeResponseBinary(verified);
    EXPECT_EQ(frame, encodeResponseBinary(responses[5]));
    patch(&frame, frame.size() - 4, std::uint32_t{1});  // the length word
    frame += 'x';
    EXPECT_FALSE(decodeResponseBinary(frame).ok());
  }
}

TEST(BinaryCodec, BindingsMustBeInStrictOrder) {
  Response response;
  response.id = 3;
  response.ok = true;
  NegotiateResult granted;
  granted.admitted = true;
  granted.bindings = {{"a", 1}, {"b", 2}};
  response.result = granted;
  const auto frame = encodeResponseBinary(response);
  ASSERT_TRUE(decodeResponseBinary(frame).ok());
  // Swap the two parameter names: out of order.
  std::string swapped = frame;
  const auto a = swapped.rfind('a');
  const auto b = swapped.rfind('b');
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  std::swap(swapped[a], swapped[b]);
  EXPECT_FALSE(decodeResponseBinary(swapped).ok());
  // Repeat one: not strictly ascending either.
  std::string repeated = frame;
  repeated[b] = 'a';
  EXPECT_FALSE(decodeResponseBinary(repeated).ok());
  // A value the JSON codec rounds.
  std::string rounded = frame;
  patch(&rounded, rounded.size() - 8,
        std::int64_t{(std::int64_t{1} << 53) + 1});
  EXPECT_FALSE(decodeResponseBinary(rounded).ok());
}

// The decoder's fast path for times (every time within 2^50 ticks is
// carried) against the JSON codec's own round trip, around the bound and
// at random.
TEST(BinaryCodec, CarriedTimesAreExactlyThoseJsonRoundTrips) {
  const auto jsonCarries = [](Time t) {
    const double units = unitsFromTicks(t);
    return unitsFitTicks(units) && ticksFromUnits(units) == t;
  };
  const auto binaryCarries = [](Time t) {
    Response response;
    response.id = 1;
    response.ok = true;
    response.result = CancelResult{t};
    return decodeResponseBinary(encodeResponseBinary(response)).ok();
  };
  std::vector<Time> times = {0, 1, -1, kTimeInfinity, -kTimeInfinity,
                             kTimeInfinity - 1,
                             std::numeric_limits<Time>::max(),
                             std::numeric_limits<Time>::min()};
  for (int shift = 48; shift <= 62; ++shift) {
    for (Time delta = -3; delta <= 3; ++delta) {
      times.push_back((Time{1} << shift) + delta);
      times.push_back(-(Time{1} << shift) + delta);
    }
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const int bits = 1 + static_cast<int>(rng() % 62);
    const Time t = static_cast<Time>(rng() >> (64 - bits));
    times.push_back(i % 2 == 0 ? t : -t);
  }
  int carried = 0;
  for (const Time t : times) {
    EXPECT_EQ(binaryCarries(t), jsonCarries(t)) << t;
    carried += jsonCarries(t) ? 1 : 0;
  }
  EXPECT_GT(carried, 1000);
  EXPECT_LT(carried, static_cast<int>(times.size()));
}

// The HELLO member that asks for binary frames, in JSON: absent by default
// (the pinned JSON HELLO frames do not change), echoed when asked, and a
// name this codec does not know asks for JSON.
TEST(BinaryCodec, HelloNegotiatesTheEncodingInJson) {
  auto requests = goldenRequests();
  const auto frame = encodeRequest(requests.back());
  EXPECT_NE(frame.find("\"encoding\": \"binary\""), std::string::npos)
      << frame;
  EXPECT_EQ(encodeRequest(requests[requests.size() - 2]).find("encoding"),
            std::string::npos);
  const auto decoded = decodeRequest(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_EQ(std::get<HelloRequest>(decoded.request->payload).encoding,
            Encoding::Binary);

  const auto future = decodeRequest(
      R"({"cmd": "HELLO", "encoding": "cbor", "id": 1, "v": 2})");
  ASSERT_TRUE(future.ok()) << future.error;
  EXPECT_EQ(std::get<HelloRequest>(future.request->payload).encoding,
            Encoding::Json);
  EXPECT_FALSE(
      decodeRequest(R"({"cmd": "HELLO", "encoding": 1, "id": 1, "v": 2})")
          .ok());

  const auto grant = encodeResponse(goldenResponses().back());
  EXPECT_NE(grant.find("\"encoding\": \"binary\""), std::string::npos)
      << grant;
  const auto granted = decodeResponse(grant);
  ASSERT_TRUE(granted.ok()) << granted.error;
  EXPECT_EQ(std::get<HelloResult>(granted.response->result).encoding,
            Encoding::Binary);
}

}  // namespace
}  // namespace tprm::service
