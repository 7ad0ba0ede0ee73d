#include "service/wiretrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace tprm::service {
namespace {

// Per-process, so copies of the suite running at once do not share files.
std::string tempPath(const std::string& name) {
  return testing::TempDir() + "wiretrace_" + std::to_string(::getpid()) +
         "_" + name;
}

std::vector<WireTraceRecord> sampleRecords() {
  std::vector<WireTraceRecord> records;
  for (std::uint64_t i = 0; i < 5; ++i) {
    WireTraceRecord record;
    record.arrivalSeq = i;
    record.deltaNanos = i * 1000;
    record.payload = "{\"cmd\":\"STATS\",\"id\":" + std::to_string(i) + "}";
    records.push_back(record);
  }
  records[3].payload = "";  // empty payloads are legal records
  return records;
}

void writeTrace(const std::string& path,
                const std::vector<WireTraceRecord>& records) {
  WireTraceWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(path, &error)) << error;
  for (const auto& record : records) {
    ASSERT_TRUE(writer.append(record, &error)) << error;
  }
  ASSERT_TRUE(writer.close(&error)) << error;
}

std::string readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void writeAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WireTrace, RoundTripsRecordsExactly) {
  const auto path = tempPath("roundtrip");
  const auto records = sampleRecords();
  writeTrace(path, records);

  const auto loaded = loadWireTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.message;
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].arrivalSeq, records[i].arrivalSeq);
    EXPECT_EQ(loaded.records[i].deltaNanos, records[i].deltaNanos);
    EXPECT_EQ(loaded.records[i].payload, records[i].payload);
  }
}

TEST(WireTrace, EmptyTraceIsCleanEof) {
  const auto path = tempPath("empty");
  writeTrace(path, {});
  const auto loaded = loadWireTrace(path);
  EXPECT_EQ(loaded.status, WireTraceStatus::Eof);
  EXPECT_TRUE(loaded.records.empty());
}

TEST(WireTrace, MissingFileIsIoError) {
  const auto loaded = loadWireTrace(tempPath("does_not_exist"));
  EXPECT_EQ(loaded.status, WireTraceStatus::IoError);
  EXPECT_FALSE(loaded.message.empty());
}

TEST(WireTrace, RejectsForeignFilesByMagic) {
  const auto path = tempPath("not_a_trace");
  writeAll(path, "{\"this\": \"is json, not a trace\"}");
  const auto loaded = loadWireTrace(path);
  EXPECT_EQ(loaded.status, WireTraceStatus::BadMagic);
}

TEST(WireTrace, RejectsFlippedMagicBit) {
  const auto path = tempPath("magic_flip");
  writeTrace(path, sampleRecords());
  auto bytes = readAll(path);
  bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
  writeAll(path, bytes);
  EXPECT_EQ(loadWireTrace(path).status, WireTraceStatus::BadMagic);
}

TEST(WireTrace, RejectsVersionSkew) {
  const auto path = tempPath("version_skew");
  writeTrace(path, sampleRecords());
  auto bytes = readAll(path);
  bytes[8] = 2;  // version field (little-endian u32 at offset 8)
  writeAll(path, bytes);
  const auto loaded = loadWireTrace(path);
  EXPECT_EQ(loaded.status, WireTraceStatus::BadVersion);
  // The message names both versions so skew is actionable.
  EXPECT_NE(loaded.message.find('2'), std::string::npos);
}

TEST(WireTrace, TruncationAtEveryBoundaryIsTyped) {
  const auto path = tempPath("whole");
  writeTrace(path, sampleRecords());
  const auto bytes = readAll(path);

  // Chop the file at every prefix length: each one must produce a typed
  // error (or clean Eof exactly on record boundaries) — never a crash, a
  // silent drop, or a phantom record.
  std::vector<std::size_t> recordEnds;
  const auto full = loadWireTrace(path);
  ASSERT_TRUE(full.ok());
  std::size_t offset = 16;
  recordEnds.push_back(offset);
  for (const auto& record : full.records) {
    offset += 20 + record.payload.size() + 4;
    recordEnds.push_back(offset);
  }
  ASSERT_EQ(offset, bytes.size());

  const auto chopped = tempPath("chopped");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    writeAll(chopped, bytes.substr(0, cut));
    const auto loaded = loadWireTrace(chopped);
    const bool onBoundary =
        std::find(recordEnds.begin(), recordEnds.end(), cut) !=
        recordEnds.end();
    if (cut < 16) {
      EXPECT_EQ(loaded.status, WireTraceStatus::Truncated) << "cut=" << cut;
    } else if (onBoundary) {
      EXPECT_EQ(loaded.status, WireTraceStatus::Eof) << "cut=" << cut;
    } else {
      EXPECT_EQ(loaded.status, WireTraceStatus::Truncated) << "cut=" << cut;
    }
    // Whole records before the cut are still delivered.
    std::size_t wholeRecords = 0;
    while (wholeRecords + 1 < recordEnds.size() &&
           recordEnds[wholeRecords + 1] <= cut) {
      ++wholeRecords;
    }
    if (cut >= 16) {
      EXPECT_EQ(loaded.records.size(), wholeRecords) << "cut=" << cut;
    }
  }
}

TEST(WireTrace, BitFlipsInPayloadAreCorrupt) {
  const auto path = tempPath("payload_flip");
  writeTrace(path, sampleRecords());
  auto bytes = readAll(path);
  // First record's payload starts after header (16) + record head (20).
  const std::size_t target = 16 + 20 + 3;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x40);
  writeAll(path, bytes);
  const auto loaded = loadWireTrace(path);
  EXPECT_EQ(loaded.status, WireTraceStatus::Corrupt);
  EXPECT_TRUE(loaded.records.empty());
}

TEST(WireTrace, BitFlipsInTimingMetadataAreCorrupt) {
  const auto path = tempPath("meta_flip");
  writeTrace(path, sampleRecords());
  auto bytes = readAll(path);
  const std::size_t deltaField = 16 + 4 + 8;  // first record's deltaNanos
  bytes[deltaField] = static_cast<char>(bytes[deltaField] ^ 0x01);
  writeAll(path, bytes);
  EXPECT_EQ(loadWireTrace(path).status, WireTraceStatus::Corrupt);
}

TEST(WireTrace, HugeDeclaredLengthIsTooLargeNotAnAllocation) {
  const auto path = tempPath("huge_len");
  writeTrace(path, sampleRecords());
  auto bytes = readAll(path);
  // Overwrite the first record's length with 0xFFFFFFFF.
  bytes[16] = static_cast<char>(0xFF);
  bytes[17] = static_cast<char>(0xFF);
  bytes[18] = static_cast<char>(0xFF);
  bytes[19] = static_cast<char>(0xFF);
  writeAll(path, bytes);
  const auto loaded = loadWireTrace(path);
  EXPECT_EQ(loaded.status, WireTraceStatus::TooLarge);
}

TEST(WireTrace, CorruptionAfterValidPrefixKeepsThePrefix) {
  const auto path = tempPath("late_flip");
  writeTrace(path, sampleRecords());
  auto bytes = readAll(path);
  // Flip a byte in the LAST record's payload; the first four stay readable.
  const std::size_t lastPayload = bytes.size() - 4 - 2;
  bytes[lastPayload] = static_cast<char>(bytes[lastPayload] ^ 0x10);
  writeAll(path, bytes);
  const auto loaded = loadWireTrace(path);
  EXPECT_EQ(loaded.status, WireTraceStatus::Corrupt);
  EXPECT_EQ(loaded.records.size(), 4u);
}

TEST(WireTrace, WriterRefusesOverCapPayloads) {
  WireTraceWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(tempPath("cap"), &error)) << error;
  WireTraceRecord record;
  record.payload.assign(kWireTraceMaxPayloadBytes + 1, 'x');
  EXPECT_FALSE(writer.append(record, &error));
  EXPECT_NE(error.find("cap"), std::string::npos);
}

TEST(WireTrace, ChecksumCoversSeqDeltaAndPayload) {
  WireTraceRecord record;
  record.arrivalSeq = 1;
  record.deltaNanos = 2;
  record.payload = "abc";
  const auto base = wireTraceChecksum(record);
  auto changed = record;
  changed.arrivalSeq = 9;
  EXPECT_NE(wireTraceChecksum(changed), base);
  changed = record;
  changed.deltaNanos = 9;
  EXPECT_NE(wireTraceChecksum(changed), base);
  changed = record;
  changed.payload = "abd";
  EXPECT_NE(wireTraceChecksum(changed), base);
}

}  // namespace
}  // namespace tprm::service
