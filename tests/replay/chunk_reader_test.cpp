// TraceReader parses frames in place from a reused chunk buffer. Two frame
// shapes exercise the buffer's edges: a frame that straddles the end of the
// first chunk (its head is buffered, its tail needs the next read), and a
// switch report whose payload alone is larger than a chunk (the buffer has
// to grow to hold it). Both are read one-shot and in tail mode, where the
// file grows by 257-byte appends and a partial frame stays buffered across
// kNeedMoreData.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "replay/trace_reader.h"
#include "replay/trace_writer.h"

namespace vedr::replay {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void append_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string reencode(const TraceRecord& rec) {
  ByteWriter w;
  std::visit(
      [&w](const auto& v) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(v)>, std::monostate>) encode(w, v);
      },
      rec.payload);
  return w.take();
}

struct Frame {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  RecordType type = RecordType::kEnvelope;
  std::string payload;
};

/// Splits a trace file into its frames by hand, without the reader.
std::vector<Frame> frames_of(const std::string& bytes) {
  std::vector<Frame> frames;
  for (std::size_t pos = kFileHeaderBytes; pos < bytes.size();) {
    ByteReader prefix(std::string_view(bytes).substr(pos, kFramePrefixBytes));
    Frame f;
    f.begin = pos;
    f.type = static_cast<RecordType>(prefix.u8());
    const std::uint32_t len = prefix.u32();
    f.payload = bytes.substr(pos + kFramePrefixBytes, len);
    pos += kFramePrefixBytes + len + kFrameCrcBytes;
    f.end = pos;
    frames.push_back(std::move(f));
  }
  return frames;
}

net::FlowKey flow_key(int i) {
  net::FlowKey k;
  k.src = static_cast<net::NodeId>(i % 16);
  k.dst = static_cast<net::NodeId>((i + 5) % 16);
  k.sport = static_cast<std::uint16_t>(1000 + i);
  k.dport = 4791;
  return k;
}

/// Step records up to past the first chunk, then a switch report larger
/// than a chunk, then more step records and the footer.
std::string write_trace(const std::string& path) {
  TraceWriter writer(path);
  EXPECT_TRUE(writer.ok());
  TraceEnvelope env;
  env.participants = {0, 1, 2, 3};
  env.cc_step_bytes = 4096;
  env.horizon = 1000000;
  writer.write_envelope(env);

  const auto step = [&writer](int i) {
    collective::StepRecord r;
    r.key = flow_key(i);
    r.flow_index = i % 4;
    r.step = i;
    r.bytes = 4096;
    r.start_time = 10 * i;
    r.end_time = 10 * i + 7;
    writer.on_step_record(r);
  };
  // ~2.5 chunks of small frames, so that frames straddle chunk ends.
  for (int i = 0; i < 2500; ++i) step(i);

  telemetry::SwitchReport big;
  big.switch_id = 16;
  big.poll_id = 9;
  big.time = 777;
  telemetry::PortReport port;
  port.port = {16, 1};
  port.qdepth_pkts = 12;
  for (int i = 0; i < 3000; ++i)
    port.flows.push_back({flow_key(i), i + 1, 1024 * (i + 1), i, i + 50});
  big.ports.push_back(port);
  writer.on_switch_report_in(big);

  for (int i = 2500; i < 2600; ++i) step(i);
  TraceFooter footer;
  footer.diagnosis_digest = 5;
  writer.write_footer(footer);
  EXPECT_TRUE(writer.close());
  return read_file(path);
}

class ChunkReader : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string tag = std::to_string(::getpid());
    path_ = ::testing::TempDir() + "/chunk." + tag + ".vtrc";
    tail_path_ = ::testing::TempDir() + "/chunk_tail." + tag + ".vtrc";
    bytes_ = write_trace(path_);
    frames_ = frames_of(bytes_);
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(tail_path_.c_str());
  }

  /// Checks the shapes this fixture exists for.
  void expect_edges_present() const {
    bool straddles = false;
    bool oversized = false;
    for (const Frame& f : frames_) {
      straddles = straddles ||
                  (f.begin < TraceReader::kChunkBytes && f.end > TraceReader::kChunkBytes);
      oversized = oversized || (f.type == RecordType::kSwitchReport &&
                                f.payload.size() > TraceReader::kChunkBytes);
    }
    EXPECT_TRUE(straddles) << "no frame straddles the end of the first chunk";
    EXPECT_TRUE(oversized) << "no switch report is larger than a chunk";
  }

  std::string path_, tail_path_, bytes_;
  std::vector<Frame> frames_;
};

TEST_F(ChunkReader, OneShotReadsFramesAcrossChunkEndsAndLargerThanAChunk) {
  expect_edges_present();
  TraceReader reader(path_);
  ASSERT_TRUE(reader.ok()) << reader.error().str();
  TraceRecord rec;
  std::size_t i = 0;
  TraceStatus status;
  while ((status = reader.next(rec)) == TraceStatus::kOk) {
    ASSERT_LT(i, frames_.size());
    EXPECT_EQ(rec.type, frames_[i].type) << "frame " << i;
    EXPECT_EQ(reencode(rec), frames_[i].payload) << "frame " << i;
    EXPECT_EQ(reader.bytes_read(), frames_[i].end) << "frame " << i;
    ++i;
  }
  EXPECT_EQ(status, TraceStatus::kEof) << reader.error().str();
  EXPECT_EQ(i, frames_.size());
  EXPECT_EQ(reader.bytes_read(), bytes_.size());
}

TEST_F(ChunkReader, TailModeResumesAPartialFrameFromTheBuffer) {
  expect_edges_present();
  append_file(tail_path_, std::string());
  TraceReader reader(tail_path_, /*tail=*/true);
  ASSERT_TRUE(reader.ok()) << reader.error().str();
  TraceRecord rec;
  std::size_t i = 0;
  constexpr std::size_t kAppend = 257;
  for (std::size_t off = 0; off < bytes_.size(); off += kAppend) {
    append_file(tail_path_, bytes_.substr(off, kAppend));
    TraceStatus status;
    while ((status = reader.next(rec)) == TraceStatus::kOk) {
      ASSERT_LT(i, frames_.size());
      EXPECT_EQ(rec.type, frames_[i].type) << "frame " << i;
      EXPECT_EQ(reencode(rec), frames_[i].payload) << "frame " << i;
      ++i;
    }
    const std::size_t have = std::min(off + kAppend, bytes_.size());
    if (have < bytes_.size()) {
      ASSERT_EQ(status, TraceStatus::kNeedMoreData)
          << "after " << have << " bytes: " << reader.error().str();
      ASSERT_TRUE(reader.ok());
      // bytes_read() stays at the last complete frame while the partial one
      // waits in the buffer.
      const std::uint64_t done = i == 0 ? kFileHeaderBytes : frames_[i - 1].end;
      ASSERT_EQ(reader.bytes_read(), have < kFileHeaderBytes ? 0 : done);
    } else {
      ASSERT_EQ(status, TraceStatus::kEof) << reader.error().str();
    }
  }
  EXPECT_EQ(i, frames_.size());
  EXPECT_TRUE(reader.saw_footer());
  EXPECT_EQ(reader.bytes_read(), bytes_.size());
}

}  // namespace
}  // namespace vedr::replay
