// A corrupt, truncated, or wrong-version .vtrc must produce a typed
// TraceStatus — never a crash, hang, or out-of-bounds read. These tests
// synthesize a small valid trace, then truncate it at every frame boundary
// (plus mid-prefix and mid-payload cuts) and bit-flip bytes at the
// boundaries and payload midpoints; they run under the ASan/UBSan build in
// CI, so any UB in the decode path is fatal.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "replay/trace_format.h"
#include "replay/trace_reader.h"
#include "replay/trace_writer.h"

namespace vedr::replay {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
}

/// Reads the whole stream; returns the terminal status (kEof on success).
TraceStatus pump(const std::string& path) {
  TraceReader reader(path);
  if (!reader.ok()) return reader.error().status;
  TraceRecord rec;
  TraceStatus st = TraceStatus::kOk;
  while ((st = reader.next(rec)) == TraceStatus::kOk) {
  }
  return st;
}

/// A small but representative trace: envelope, one of every streamed record
/// type, footer.
std::string make_valid_trace(const std::string& path) {
  TraceWriter writer(path);
  EXPECT_TRUE(writer.ok());

  TraceEnvelope env;
  env.participants = {0, 1};
  env.cc_step_bytes = 1024;
  env.horizon = 1000000;
  writer.write_envelope(env);

  collective::StepRecord step;
  step.key = {0, 1, 10, 20};
  step.flow_index = 0;
  step.step = 0;
  step.bytes = 1024;
  writer.on_step_record(step);

  writer.on_poll_registered({1, 0, 0});

  telemetry::SwitchReport rep;
  rep.switch_id = 16;
  rep.poll_id = 1;
  rep.time = 500;
  telemetry::PortReport port;
  port.port = {16, 0};
  port.flows.push_back({{0, 1, 10, 20}, 2, 1024, 10, 400});
  rep.ports.push_back(port);
  writer.on_switch_report_in(rep);

  writer.on_poll_trigger({450, 0, {0, 1, 10, 20}, 1, 0});
  writer.on_notification_sent({460, 0, 1, 0, 2});

  telemetry::PauseCauseReport cause;
  cause.ingress_port = {16, 1};
  cause.time = 470;
  cause.contributions = {{0, 2048}};
  writer.on_pause_cause({16, cause});

  telemetry::DropEntry drop;
  drop.flow = {0, 1, 10, 20};
  drop.port = {16, 2};
  drop.count = 1;
  drop.last_drop = 480;
  writer.on_ttl_drop({16, drop});

  TraceFooter footer;
  footer.diagnosis_digest = 1;
  writer.write_footer(footer);
  EXPECT_TRUE(writer.close());
  return read_file(path);
}

/// Byte offsets where each frame starts, plus the end-of-file offset.
std::vector<std::size_t> frame_boundaries(const std::string& bytes) {
  std::vector<std::size_t> at;
  std::size_t pos = kFileHeaderBytes;
  while (pos < bytes.size()) {
    at.push_back(pos);
    const std::uint32_t len = static_cast<std::uint8_t>(bytes[pos + 1]) |
                              (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[pos + 2])) << 8) |
                              (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[pos + 3])) << 16) |
                              (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[pos + 4])) << 24);
    pos += kFramePrefixBytes + len + kFrameCrcBytes;
  }
  at.push_back(bytes.size());
  return at;
}

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    // ctest runs each test case as its own process, in parallel, all sharing
    // TempDir(); a per-process suffix keeps concurrent cases from tearing
    // each other's files.
    const std::string tag = std::to_string(::getpid());
    valid_path_ = dir_ + "/valid." + tag + ".vtrc";
    bytes_ = make_valid_trace(valid_path_);
    ASSERT_GT(bytes_.size(), kFileHeaderBytes);
    boundaries_ = frame_boundaries(bytes_);
    // envelope + 7 streamed records + footer = 9 frames.
    ASSERT_EQ(boundaries_.size(), 10u);
    ASSERT_EQ(boundaries_.back(), bytes_.size());
    mutant_path_ = dir_ + "/mutant." + tag + ".vtrc";
  }

  TraceStatus pump_mutant(const std::string& body) {
    write_file(mutant_path_, body);
    return pump(mutant_path_);
  }

  std::string dir_, valid_path_, mutant_path_;
  std::string bytes_;
  std::vector<std::size_t> boundaries_;
};

TEST_F(CorruptionTest, ValidTraceReadsCleanly) {
  EXPECT_EQ(pump(valid_path_), TraceStatus::kEof);
}

TEST_F(CorruptionTest, TruncationAtEveryFrameBoundary) {
  // Cutting at any boundary except end-of-file loses the footer (and more),
  // which the reader must report as truncation — a frame-granular cut leaves
  // every remaining byte valid, so only the footer's absence betrays it.
  for (std::size_t i = 0; i + 1 < boundaries_.size(); ++i) {
    const TraceStatus st = pump_mutant(bytes_.substr(0, boundaries_[i]));
    EXPECT_EQ(st, TraceStatus::kTruncated) << "cut at frame " << i;
  }
}

TEST_F(CorruptionTest, TruncationMidPrefixAndMidPayload) {
  for (std::size_t i = 0; i + 1 < boundaries_.size(); ++i) {
    const std::size_t frame = boundaries_[i];
    const std::size_t frame_len = boundaries_[i + 1] - frame;
    // Mid-prefix: type byte present, length field cut short.
    EXPECT_EQ(pump_mutant(bytes_.substr(0, frame + 2)), TraceStatus::kTruncated)
        << "mid-prefix cut in frame " << i;
    // Mid-payload / mid-CRC.
    EXPECT_EQ(pump_mutant(bytes_.substr(0, frame + frame_len / 2 + 1)), TraceStatus::kTruncated)
        << "mid-payload cut in frame " << i;
  }
}

TEST_F(CorruptionTest, TruncatedHeader) {
  for (std::size_t cut = 0; cut < kFileHeaderBytes; ++cut) {
    const TraceStatus st = pump_mutant(bytes_.substr(0, cut));
    EXPECT_TRUE(st == TraceStatus::kBadHeader || st == TraceStatus::kBadMagic) << "cut=" << cut;
  }
}

TEST_F(CorruptionTest, BitFlipAtEveryFrameBoundary) {
  // Flipping a bit in a frame prefix corrupts either the type, the length,
  // or both; any typed error is acceptable, silent success is not.
  for (std::size_t i = 0; i + 1 < boundaries_.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = bytes_;
      mutant[boundaries_[i]] = static_cast<char>(mutant[boundaries_[i]] ^ (1 << bit));
      const TraceStatus st = pump_mutant(mutant);
      EXPECT_TRUE(st == TraceStatus::kCrcMismatch || st == TraceStatus::kBadRecord ||
                  st == TraceStatus::kTruncated)
          << "frame " << i << " bit " << bit << " -> " << to_string(st);
    }
  }
}

TEST_F(CorruptionTest, BitFlipInPayloadIsCaughtByCrc) {
  // A flip strictly inside a payload leaves the prefix intact, so the frame
  // is read in full and the CRC must catch it.
  for (std::size_t i = 0; i + 1 < boundaries_.size(); ++i) {
    const std::size_t frame = boundaries_[i];
    const std::size_t frame_len = boundaries_[i + 1] - frame;
    if (frame_len <= kFramePrefixBytes + kFrameCrcBytes) continue;  // empty payload
    std::string mutant = bytes_;
    const std::size_t at = frame + kFramePrefixBytes + (frame_len - kFramePrefixBytes - kFrameCrcBytes) / 2;
    mutant[at] = static_cast<char>(mutant[at] ^ 0x40);
    EXPECT_EQ(pump_mutant(mutant), TraceStatus::kCrcMismatch) << "frame " << i;
  }
}

TEST_F(CorruptionTest, BadMagic) {
  std::string mutant = bytes_;
  mutant[0] = 'X';
  EXPECT_EQ(pump_mutant(mutant), TraceStatus::kBadMagic);
}

TEST_F(CorruptionTest, HeaderCrcMismatch) {
  std::string mutant = bytes_;
  mutant[8] = static_cast<char>(mutant[8] ^ 0xFF);  // stored header CRC
  EXPECT_EQ(pump_mutant(mutant), TraceStatus::kBadHeader);
  std::string mutant2 = bytes_;
  mutant2[6] = static_cast<char>(mutant2[6] ^ 0x01);  // flags field
  EXPECT_EQ(pump_mutant(mutant2), TraceStatus::kBadHeader);
}

TEST_F(CorruptionTest, ReservedFlagsRejected) {
  // A header with nonzero flags and a *valid* CRC — i.e. written by a
  // future producer, not corrupted in transit — must still be rejected.
  ByteWriter w;
  w.bytes(std::string_view(kMagic, sizeof kMagic));
  w.u16(kTraceVersion);
  w.u16(1);  // reserved flags
  std::string header = w.take();
  ByteWriter crc_w;
  crc_w.u32(crc32(header));
  header += crc_w.take();
  EXPECT_EQ(pump_mutant(header + bytes_.substr(kFileHeaderBytes)), TraceStatus::kBadHeader);
}

TEST_F(CorruptionTest, WrongVersionRejected) {
  // A well-formed header from a future version: readers accept exactly one
  // version (DESIGN.md versioning rules).
  std::string mutant = encode_file_header(kTraceVersion + 1) + bytes_.substr(kFileHeaderBytes);
  EXPECT_EQ(pump_mutant(mutant), TraceStatus::kBadVersion);
}

TEST_F(CorruptionTest, FrameAfterFooterRejected) {
  // Duplicate the footer frame at the end: structurally invalid.
  const std::size_t footer_at = boundaries_[boundaries_.size() - 2];
  std::string mutant = bytes_ + bytes_.substr(footer_at);
  EXPECT_EQ(pump_mutant(mutant), TraceStatus::kBadRecord);
}

TEST_F(CorruptionTest, MissingEnvelopeRejected) {
  // Drop the envelope frame: the first record is then a step record, which
  // may not appear before the envelope.
  std::string mutant = bytes_.substr(0, kFileHeaderBytes) + bytes_.substr(boundaries_[1]);
  EXPECT_EQ(pump_mutant(mutant), TraceStatus::kBadRecord);
}

TEST_F(CorruptionTest, ErrorsLatch) {
  std::string mutant = bytes_;
  const std::size_t at = boundaries_[2] + kFramePrefixBytes;
  mutant[at] = static_cast<char>(mutant[at] ^ 0x01);
  write_file(mutant_path_, mutant);
  TraceReader reader(mutant_path_);
  TraceRecord rec;
  TraceStatus st = TraceStatus::kOk;
  while ((st = reader.next(rec)) == TraceStatus::kOk) {
  }
  EXPECT_EQ(st, TraceStatus::kCrcMismatch);
  // Further calls return the same latched error.
  EXPECT_EQ(reader.next(rec), TraceStatus::kCrcMismatch);
  EXPECT_EQ(reader.error().status, TraceStatus::kCrcMismatch);
  EXPECT_FALSE(reader.error().str().empty());
}

TEST_F(CorruptionTest, NonexistentFile) {
  EXPECT_EQ(pump(dir_ + "/does-not-exist.vtrc"), TraceStatus::kIoError);
}

TEST_F(CorruptionTest, EmptyFile) {
  EXPECT_TRUE(pump_mutant("") == TraceStatus::kBadHeader || pump_mutant("") == TraceStatus::kBadMagic);
}

}  // namespace
}  // namespace vedr::replay
