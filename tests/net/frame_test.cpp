// Framing and socket-layer tests over socketpair(2): no listeners involved,
// so these exercise exactly the read/write/deadline logic.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"

namespace tprm::net {
namespace {

using namespace std::chrono_literals;

/// A connected pair of stream sockets.
struct Pair {
  Socket a;
  Socket b;

  Pair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

std::string bigEndianPrefix(std::uint32_t length) {
  std::string prefix(4, '\0');
  prefix[0] = static_cast<char>((length >> 24) & 0xff);
  prefix[1] = static_cast<char>((length >> 16) & 0xff);
  prefix[2] = static_cast<char>((length >> 8) & 0xff);
  prefix[3] = static_cast<char>(length & 0xff);
  return prefix;
}

TEST(Frame, RoundTripsPayloads) {
  Pair pair;
  const FrameLimits limits;
  for (const std::string& payload :
       {std::string(""), std::string("{}"), std::string(4096, 'x')}) {
    ASSERT_TRUE(
        writeFrame(pair.a, payload, limits, Deadline::after(1s)).ok());
    auto read = readFrame(pair.b, limits, Deadline::after(1s),
                          Deadline::after(1s));
    ASSERT_TRUE(read.ok()) << read.message;
    EXPECT_EQ(read.payload, payload);
  }
}

TEST(Frame, ReassemblesByteAtATimeDelivery) {
  Pair pair;
  const FrameLimits limits;
  const std::string payload = "{\"cmd\":\"STATS\"}";
  const std::string wire =
      bigEndianPrefix(static_cast<std::uint32_t>(payload.size())) + payload;
  std::thread writer([&] {
    for (const char byte : wire) {
      ASSERT_TRUE(
          pair.a.writeAll(&byte, 1, Deadline::after(1s)).ok());
      std::this_thread::sleep_for(1ms);
    }
  });
  auto read =
      readFrame(pair.b, limits, Deadline::after(5s), Deadline::after(5s));
  writer.join();
  ASSERT_TRUE(read.ok()) << read.message;
  EXPECT_EQ(read.payload, payload);
}

TEST(Frame, RejectsOversizedDeclarationWithoutReadingPayload) {
  Pair pair;
  FrameLimits limits;
  limits.maxPayloadBytes = 16;
  // Declare 1 GiB; send only the prefix.  The reader must refuse after the
  // four length bytes instead of waiting for (or allocating) the payload.
  const auto prefix = bigEndianPrefix(1u << 30);
  ASSERT_TRUE(
      pair.a.writeAll(prefix.data(), prefix.size(), Deadline::after(1s))
          .ok());
  auto read =
      readFrame(pair.b, limits, Deadline::after(1s), Deadline::after(1s));
  EXPECT_EQ(read.status, FrameStatus::TooLarge);
}

TEST(Frame, WriteRefusesOversizedPayloadLocally) {
  Pair pair;
  FrameLimits limits;
  limits.maxPayloadBytes = 8;
  const auto result = writeFrame(pair.a, std::string(64, 'y'), limits,
                                 Deadline::after(1s));
  EXPECT_EQ(result.status, FrameStatus::TooLarge);
  // Nothing hit the wire: the peer sees silence, not a mangled frame.
  auto read = readFrame(pair.b, limits, Deadline::after(50ms),
                        Deadline::after(50ms));
  EXPECT_EQ(read.status, FrameStatus::Timeout);
}

TEST(Frame, IdleSilenceTimesOut) {
  Pair pair;
  const FrameLimits limits;
  auto read = readFrame(pair.b, limits, Deadline::after(50ms),
                        Deadline::after(50ms));
  EXPECT_EQ(read.status, FrameStatus::Timeout);
}

TEST(Frame, CleanEofBetweenFramesIsClosed) {
  Pair pair;
  const FrameLimits limits;
  pair.a.close();
  auto read =
      readFrame(pair.b, limits, Deadline::after(1s), Deadline::after(1s));
  EXPECT_EQ(read.status, FrameStatus::Closed);
}

TEST(Frame, TruncationMidFrameIsAnError) {
  Pair pair;
  const FrameLimits limits;
  // Declare 10 bytes, deliver 3, hang up.
  const auto prefix = bigEndianPrefix(10);
  ASSERT_TRUE(
      pair.a.writeAll(prefix.data(), prefix.size(), Deadline::after(1s))
          .ok());
  ASSERT_TRUE(pair.a.writeAll("abc", 3, Deadline::after(1s)).ok());
  pair.a.close();
  auto read =
      readFrame(pair.b, limits, Deadline::after(1s), Deadline::after(1s));
  EXPECT_EQ(read.status, FrameStatus::Error);
}

TEST(Frame, TruncationInsidePrefixIsAnError) {
  Pair pair;
  const FrameLimits limits;
  ASSERT_TRUE(pair.a.writeAll("\0\0", 2, Deadline::after(1s)).ok());
  pair.a.close();
  auto read =
      readFrame(pair.b, limits, Deadline::after(1s), Deadline::after(1s));
  EXPECT_EQ(read.status, FrameStatus::Error);
}

TEST(Frame, BackToBackFramesStayInSync) {
  Pair pair;
  const FrameLimits limits;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writeFrame(pair.a, "frame-" + std::to_string(i), limits,
                           Deadline::after(1s))
                    .ok());
  }
  for (int i = 0; i < 10; ++i) {
    auto read = readFrame(pair.b, limits, Deadline::after(1s),
                          Deadline::after(1s));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.payload, "frame-" + std::to_string(i));
  }
}

// --- Incremental decoder (the event-loop read path) ------------------------

/// Codec corpus shared by the decoder tests: every boundary case the blocking
/// reader is known to handle, so byte-at-a-time decoding proves the
/// incremental path equivalent.
std::vector<std::string> decoderCorpus() {
  return {
      std::string(""),                     // empty payload
      std::string("{}"),                   // minimal JSON
      std::string("{\"cmd\":\"STATS\"}"),  // realistic request
      std::string(1, '\0'),                // binary byte
      std::string(4096, 'x'),              // multi-read payload
      std::string("tail"),                 // small frame after a large one
  };
}

/// Encodes the whole corpus back-to-back with appendFrame.
std::string corpusWire(const std::vector<std::string>& corpus,
                       const FrameLimits& limits) {
  std::string wire;
  for (const auto& payload : corpus) {
    EXPECT_TRUE(appendFrame(wire, payload, limits).ok());
  }
  return wire;
}

/// Copies `n` bytes of `data` into the decoder the way a socket read does:
/// through prepare/commit, as many reads as the offered space needs.
void readInto(FrameDecoder& decoder, const char* data, std::size_t n) {
  while (n > 0) {
    const auto space = decoder.prepare();
    ASSERT_FALSE(space.empty());
    const std::size_t take = std::min(n, space.size());
    std::memcpy(space.data(), data, take);
    decoder.commit(take);
    data += take;
    n -= take;
  }
}

TEST(FrameDecoder, DecodesCorpusFedByteAtATime) {
  const FrameLimits limits;
  const auto corpus = decoderCorpus();
  const auto wire = corpusWire(corpus, limits);
  FrameDecoder decoder(limits);
  std::vector<std::string> out;
  std::string_view payload;
  for (const char byte : wire) {
    readInto(decoder, &byte, 1);
    while (decoder.next(&payload)) out.emplace_back(payload);
  }
  ASSERT_FALSE(decoder.failed()) << decoder.message();
  EXPECT_EQ(out, corpus);
  EXPECT_EQ(decoder.pendingBytes(), 0u);
}

TEST(FrameDecoder, DecodesCorpusAcrossEverySplitPoint) {
  // Adversarial reassembly: split the whole stream into two reads at every
  // position — inside length prefixes, across frame boundaries, mid-payload
  // — and require identical output for each split.  The first frame is
  // larger than the first read window, so the buffer grows mid-frame.
  const FrameLimits limits;
  auto corpus = decoderCorpus();
  corpus.insert(corpus.begin(),
                std::string(FrameDecoder::kMinReadWindow + 123, 'w'));
  const auto wire = corpusWire(corpus, limits);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    FrameDecoder decoder(limits);
    readInto(decoder, wire.data(), split);
    std::vector<std::string> out;
    std::string_view payload;
    while (decoder.next(&payload)) out.emplace_back(payload);
    readInto(decoder, wire.data() + split, wire.size() - split);
    while (decoder.next(&payload)) out.emplace_back(payload);
    ASSERT_FALSE(decoder.failed()) << "split=" << split;
    ASSERT_EQ(out, corpus) << "split=" << split;
    ASSERT_EQ(decoder.pendingBytes(), 0u) << "split=" << split;
  }
}

TEST(FrameDecoder, FailsAtHeaderTimeOnOversizedDeclaration) {
  FrameLimits limits;
  limits.maxPayloadBytes = 16;
  FrameDecoder decoder(limits);
  // A valid frame, then a 1 GiB declaration with no payload behind it.
  std::string wire;
  ASSERT_TRUE(appendFrame(wire, "ok", limits).ok());
  wire += bigEndianPrefix(1u << 30);
  readInto(decoder, wire.data(), wire.size());
  std::string_view payload;
  ASSERT_TRUE(decoder.next(&payload));
  EXPECT_EQ(payload, "ok");
  // The oversized frame fails from the four header bytes alone — the
  // decoder must not wait for (or buffer) the declared payload.
  EXPECT_FALSE(decoder.next(&payload));
  EXPECT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.message().empty());
  // A failed decoder stays failed; further bytes are dropped, so nothing
  // accumulates behind the refused header.
  const std::string more(64, 'z');
  readInto(decoder, more.data(), more.size());
  EXPECT_FALSE(decoder.next(&payload));
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.pendingBytes(), 4u);
}

TEST(FrameDecoder, ReportsPartialFrameAsPendingBytes) {
  const FrameLimits limits;
  FrameDecoder decoder(limits);
  const auto prefix = bigEndianPrefix(10);
  readInto(decoder, prefix.data(), prefix.size());
  readInto(decoder, "abc", 3);
  std::string_view payload;
  EXPECT_FALSE(decoder.next(&payload));
  EXPECT_FALSE(decoder.failed());
  // 4 header + 3 payload bytes buffered: an EOF now is a truncation.
  EXPECT_EQ(decoder.pendingBytes(), 7u);
}

TEST(FrameDecoder, PreparedSocketReadsDecodeAFrameLargerThanTheWindow) {
  // A real socket read straight into the decoder: a frame several read
  // windows long arrives in many reads and decodes whole.
  Pair pair;
  const FrameLimits limits;
  const std::string big(3 * FrameDecoder::kMaxReadWindow + 17, 'b');
  std::string wire;
  ASSERT_TRUE(appendFrame(wire, big, limits).ok());
  ASSERT_TRUE(appendFrame(wire, "after", limits).ok());
  std::thread writer([&] {
    EXPECT_TRUE(
        pair.a.writeAll(wire.data(), wire.size(), Deadline::after(5s)).ok());
  });
  FrameDecoder decoder(limits);
  std::vector<std::string> out;
  std::string_view payload;
  std::size_t received = 0;
  while (received < wire.size()) {
    const auto space = decoder.prepare();
    const auto chunk = pair.b.readSome(space.data(), space.size());
    ASSERT_TRUE(chunk.ok()) << chunk.message;
    decoder.commit(chunk.bytes);
    received += chunk.bytes;
    while (decoder.next(&payload)) out.emplace_back(payload);
  }
  writer.join();
  ASSERT_FALSE(decoder.failed()) << decoder.message();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], big);
  EXPECT_EQ(out[1], "after");
}

TEST(FrameDecoder, BufferGrowsOnlyWhenAReadFillsIt) {
  const FrameLimits limits;
  FrameDecoder decoder(limits);
  EXPECT_EQ(decoder.capacity(), 0u);  // nothing pinned before the first read
  // Many small frames in reads that never fill the offered space: the
  // buffer stays at the first window, compaction keeps it there.
  std::string frame;
  ASSERT_TRUE(appendFrame(frame, std::string(100, 's'), limits).ok());
  std::string_view payload;
  for (int i = 0; i < 10000; ++i) {
    const auto space = decoder.prepare();
    ASSERT_GT(space.size(), frame.size());
    std::memcpy(space.data(), frame.data(), frame.size());
    decoder.commit(frame.size());
    ASSERT_TRUE(decoder.next(&payload));
  }
  EXPECT_EQ(decoder.capacity(), FrameDecoder::kMinReadWindow);

  // A read that fills the space offered grows the buffer for the next one,
  // and the window doubles up to its cap.
  std::size_t previous = decoder.prepare().size();
  for (int i = 0; i < 8; ++i) {
    const auto space = decoder.prepare();
    EXPECT_GE(space.size(), previous);
    std::memset(space.data(), 0, space.size());  // a run of empty frames
    decoder.commit(space.size());
    while (decoder.next(&payload)) EXPECT_TRUE(payload.empty());
    previous = space.size();
  }
  EXPECT_GE(decoder.prepare().size(), FrameDecoder::kMaxReadWindow);
  EXPECT_LE(decoder.capacity(), 2 * FrameDecoder::kMaxReadWindow);
}

TEST(FrameDecoder, AppendFrameRefusesOversizedPayloadLocally) {
  FrameLimits limits;
  limits.maxPayloadBytes = 8;
  std::string wire = "prefix-preserved";
  const auto result = appendFrame(wire, std::string(64, 'y'), limits);
  EXPECT_EQ(result.status, FrameStatus::TooLarge);
  EXPECT_EQ(wire, "prefix-preserved");  // nothing partial appended
}

TEST(FrameDecoder, AppendFrameInPlaceMatchesAppendFrame) {
  const FrameLimits limits;
  for (const std::string& payload :
       {std::string(""), std::string("{}"), std::string(70'000, 'z')}) {
    std::string expected = "head";
    ASSERT_TRUE(appendFrame(expected, payload, limits).ok());
    std::string wire = "head";
    ASSERT_TRUE(appendFrameInPlace(wire, limits, [&](std::string& out) {
                  out += payload;
                }).ok());
    EXPECT_EQ(wire, expected);
  }
}

TEST(FrameDecoder, AppendFrameInPlaceRollsBackOversizedPayload) {
  FrameLimits limits;
  limits.maxPayloadBytes = 8;
  std::string wire = "prefix-preserved";
  const auto result = appendFrameInPlace(
      wire, limits, [](std::string& out) { out.append(64, 'y'); });
  EXPECT_EQ(result.status, FrameStatus::TooLarge);
  EXPECT_EQ(wire, "prefix-preserved");
}

// --- Nonblocking socket primitives (the event-loop I/O path) ----------------

TEST(Socket, ReadSomeReportsWouldBlockOnIdleNonblockingSocket) {
  Pair pair;
  ASSERT_TRUE(pair.b.setNonBlocking(true).ok());
  char buffer[16];
  EXPECT_EQ(pair.b.readSome(buffer, sizeof buffer).status,
            IoStatus::WouldBlock);
  // Data arriving later is picked up by a plain retry.
  ASSERT_TRUE(pair.a.writeAll("xy", 2, Deadline::after(1s)).ok());
  ASSERT_TRUE(pair.b.waitReadable(Deadline::after(1s)).ok());
  const auto chunk = pair.b.readSome(buffer, sizeof buffer);
  ASSERT_EQ(chunk.status, IoStatus::Ok);
  EXPECT_EQ(chunk.bytes, 2u);
}

TEST(Socket, WriteSomeResumesAfterShortWriteOnTinySendBuffer) {
  // The partial-write regression this pins: a nonblocking send into a full
  // kernel buffer must report WouldBlock *with the count already
  // transferred*, and resuming from that offset must reconstruct the exact
  // byte stream.  Tiny SO_SNDBUF forces many short writes.
  Pair pair;
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(pair.a.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof tiny),
            0);
  ASSERT_TRUE(pair.a.setNonBlocking(true).ok());

  std::string message(1 << 20, '\0');  // 1 MiB, patterned for verification
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<char>('a' + (i % 23));
  }
  std::string received;
  std::thread reader([&] {
    char buffer[65536];
    while (received.size() < message.size()) {
      const auto chunk = pair.b.readSome(buffer, sizeof buffer);
      ASSERT_EQ(chunk.status, IoStatus::Ok);
      received.append(buffer, chunk.bytes);
    }
  });

  std::size_t offset = 0;
  std::size_t shortWrites = 0;
  while (offset < message.size()) {
    const auto chunk =
        pair.a.writeSome(message.data() + offset, message.size() - offset);
    ASSERT_NE(chunk.status, IoStatus::Closed);
    ASSERT_NE(chunk.status, IoStatus::Error) << chunk.message;
    offset += chunk.bytes;  // WouldBlock still reports progress
    if (chunk.status == IoStatus::WouldBlock) {
      ++shortWrites;
      ASSERT_TRUE(pair.a.waitWritable(Deadline::after(5s)).ok());
    }
  }
  reader.join();
  EXPECT_EQ(received, message);
  // The premise of the test: the buffer really was too small for one shot.
  EXPECT_GT(shortWrites, 0u);
}

TEST(Socket, ReadAvailableNeverBlocksABlockingSocket) {
  Pair pair;
  char buffer[16];
  EXPECT_EQ(pair.b.readAvailable(buffer, sizeof buffer).status,
            IoStatus::WouldBlock);
  ASSERT_TRUE(pair.a.writeAll("xy", 2, Deadline::after(1s)).ok());
  const auto chunk = pair.b.readAvailable(buffer, sizeof buffer);
  ASSERT_EQ(chunk.status, IoStatus::Ok);
  EXPECT_EQ(chunk.bytes, 2u);
}

TEST(Socket, ShutdownWakesABlockedReader) {
  Pair pair;
  IoResult waited;
  IoChunk chunk;
  std::thread reader([&] {
    char buffer[16];
    waited = pair.b.waitReadable(Deadline::infinite());
    chunk = pair.b.readAvailable(buffer, sizeof buffer);
  });
  std::this_thread::sleep_for(20ms);
  pair.b.shutdown();
  reader.join();
  EXPECT_TRUE(waited.ok());
  EXPECT_EQ(chunk.status, IoStatus::Closed);
  EXPECT_TRUE(pair.b.valid());  // the fd stays open until close()
}

TEST(Socket, WriteToClosedPeerReportsClosedNotSigpipe) {
  Pair pair;
  pair.b.close();
  // The first write may land in the kernel buffer; keep writing until the
  // RST surfaces.  What must never happen is process death by SIGPIPE.
  IoResult result;
  for (int i = 0; i < 100; ++i) {
    result = pair.a.writeAll(std::string(1024, 'z').data(), 1024,
                             Deadline::after(100ms));
    if (!result.ok()) break;
  }
  EXPECT_NE(result.status, IoStatus::Ok);
}

TEST(Socket, ReadExactTimesOutOnPartialData) {
  Pair pair;
  ASSERT_TRUE(pair.a.writeAll("ab", 2, Deadline::after(1s)).ok());
  char buffer[8] = {};
  const auto result =
      pair.b.readExact(buffer, sizeof(buffer), Deadline::after(50ms));
  EXPECT_EQ(result.status, IoStatus::Timeout);
}

TEST(Deadline, PollTimeoutRoundsUpAndClamps) {
  EXPECT_EQ(Deadline::infinite().pollTimeoutMs(), -1);
  EXPECT_FALSE(Deadline::infinite().expired());
  const auto expired = Deadline::after(0ms);
  EXPECT_EQ(expired.pollTimeoutMs(), 0);
  const auto future = Deadline::after(10s);
  EXPECT_GT(future.pollTimeoutMs(), 9000);
}

TEST(Listener, TcpEphemeralPortResolvesAndAccepts) {
  std::string error;
  auto listener = Listener::listenTcp(0, &error);
  ASSERT_TRUE(listener.valid()) << error;
  ASSERT_NE(listener.boundPort(), 0);

  auto connected =
      connectTcp("127.0.0.1", listener.boundPort(), Deadline::after(1s));
  ASSERT_TRUE(connected.ok()) << connected.error;
  auto accepted = listener.accept(Deadline::after(1s));
  ASSERT_EQ(accepted.status, IoStatus::Ok) << accepted.message;

  const FrameLimits limits;
  ASSERT_TRUE(
      writeFrame(connected.socket, "ping", limits, Deadline::after(1s)).ok());
  auto read = readFrame(accepted.socket, limits, Deadline::after(1s),
                        Deadline::after(1s));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.payload, "ping");
}

TEST(Listener, UnixSocketBindsAcceptsAndUnlinksOnClose) {
  const std::string path =
      "/tmp/tprm-net-test-" + std::to_string(::getpid()) + ".sock";
  std::string error;
  {
    auto listener = Listener::listenUnix(path, &error);
    ASSERT_TRUE(listener.valid()) << error;
    auto connected = connectUnix(path, Deadline::after(1s));
    ASSERT_TRUE(connected.ok()) << connected.error;
    auto accepted = listener.accept(Deadline::after(1s));
    ASSERT_EQ(accepted.status, IoStatus::Ok) << accepted.message;
  }
  // RAII close unlinked the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  // And a stale file at the path is replaced by the next bind.
  {
    auto first = Listener::listenUnix(path, &error);
    ASSERT_TRUE(first.valid()) << error;
  }
  auto second = Listener::listenUnix(path, &error);
  EXPECT_TRUE(second.valid()) << error;
}

TEST(Listener, AcceptTimesOutWhenNobodyConnects) {
  std::string error;
  auto listener = Listener::listenTcp(0, &error);
  ASSERT_TRUE(listener.valid()) << error;
  const auto accepted = listener.accept(Deadline::after(50ms));
  EXPECT_EQ(accepted.status, IoStatus::Timeout);
}

}  // namespace
}  // namespace tprm::net
