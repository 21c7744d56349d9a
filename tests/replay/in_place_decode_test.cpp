// TraceReader::next decodes into the caller's record in place. These tests
// pass one reused TraceRecord through every frame of each corpus trace and
// require that each decoded record re-encodes to exactly its frame's
// payload bytes. That covers the informational records, which no digest
// sees, and it catches any field left over from the record a frame was
// decoded into. Fields the wire does not carry must read as their defaults
// whatever the caller left in them.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "replay/trace_reader.h"

#ifndef VEDR_REPLAY_CORPUS_DIR
#error "VEDR_REPLAY_CORPUS_DIR must be defined by the build"
#endif

namespace vedr::replay {
namespace {

struct Frame {
  RecordType type;
  std::string payload;
};

/// Splits a trace file into its frames by hand, without the reader.
std::vector<Frame> frames_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::vector<Frame> frames;
  for (std::size_t pos = kFileHeaderBytes; pos < bytes.size();) {
    ByteReader prefix(std::string_view(bytes).substr(pos, kFramePrefixBytes));
    const auto type = static_cast<RecordType>(prefix.u8());
    const std::uint32_t len = prefix.u32();
    frames.push_back({type, bytes.substr(pos + kFramePrefixBytes, len)});
    pos += kFramePrefixBytes + len + kFrameCrcBytes;
  }
  return frames;
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

/// Sets every field that is not on the wire away from its default, as a
/// sketch-lane consumer of the record could have left it.
void set_fields_not_on_wire(TraceRecord& rec) {
  if (auto* rep = std::get_if<telemetry::SwitchReport>(&rec.payload)) {
    rep->backend = net::TelemetryBackend::kSketch;
    for (telemetry::PortReport& p : rep->ports) p.truncated = true;
  } else if (auto* env = std::get_if<TraceEnvelope>(&rec.payload)) {
    env->netcfg.telemetry.backend = net::TelemetryBackend::kSketch;
    env->netcfg.telemetry.topk = 3;
    env->netcfg.telemetry_retention = 1;
  }
}

void expect_fields_not_on_wire_are_defaults(const TraceRecord& rec) {
  if (const auto* rep = std::get_if<telemetry::SwitchReport>(&rec.payload)) {
    EXPECT_EQ(rep->backend, net::TelemetryBackend::kExact);
    for (const telemetry::PortReport& p : rep->ports) EXPECT_FALSE(p.truncated);
  } else if (const auto* env = std::get_if<TraceEnvelope>(&rec.payload)) {
    const net::NetConfig defaults;
    EXPECT_EQ(env->netcfg.telemetry.backend, defaults.telemetry.backend);
    EXPECT_EQ(env->netcfg.telemetry.topk, defaults.telemetry.topk);
    EXPECT_EQ(env->netcfg.telemetry_retention, defaults.telemetry_retention);
  }
}

/// A record that already holds an envelope, with longer vectors than any
/// corpus envelope, so the first frame decodes in place too.
TraceRecord stale_envelope() {
  TraceEnvelope env;
  env.participants.assign(64, 7);
  env.bg_flows.resize(64);
  env.storms.resize(64);
  TraceRecord rec;
  rec.payload = env;
  set_fields_not_on_wire(rec);
  return rec;
}

class InPlaceDecode : public ::testing::TestWithParam<std::string> {
 protected:
  std::string path() const {
    return std::string(VEDR_REPLAY_CORPUS_DIR) + "/" + GetParam() + ".vtrc";
  }
};

TEST_P(InPlaceDecode, OneReusedRecordReencodesToEveryFramePayload) {
  const std::vector<Frame> frames = frames_of(path());
  TraceReader reader(path());
  ASSERT_TRUE(reader.ok()) << reader.error().str();
  TraceRecord rec = stale_envelope();
  std::size_t i = 0;
  std::size_t reports_in_place = 0;
  TraceStatus st = TraceStatus::kOk;
  for (;; ++i) {
    set_fields_not_on_wire(rec);
    const bool held_report = std::holds_alternative<telemetry::SwitchReport>(rec.payload);
    if ((st = reader.next(rec)) != TraceStatus::kOk) break;
    ASSERT_LT(i, frames.size());
    ASSERT_EQ(rec.type, frames[i].type) << "frame " << i;
    ASSERT_EQ(reencode(rec), frames[i].payload)
        << "frame " << i << " (" << to_string(rec.type) << ")";
    expect_fields_not_on_wire_are_defaults(rec);
    if (held_report && rec.type == RecordType::kSwitchReport) ++reports_in_place;
  }
  EXPECT_EQ(st, TraceStatus::kEof) << reader.error().str();
  EXPECT_EQ(i, frames.size());
  EXPECT_GT(reports_in_place, 0U) << "no switch report was decoded over another";
}

TEST_P(InPlaceDecode, MovedFromRecordDecodesCorrectly) {
  // serve's tailer moves each record into the session queue and passes the
  // moved-from record to the next next() call.
  const std::vector<Frame> frames = frames_of(path());
  TraceReader reader(path());
  TraceRecord rec;
  std::size_t i = 0;
  while (reader.next(rec) == TraceStatus::kOk) {
    ASSERT_LT(i, frames.size());
    const TraceRecord taken = std::move(rec);
    ASSERT_EQ(reencode(taken), frames[i].payload) << "frame " << i;
    ++i;
  }
  EXPECT_EQ(reader.error().status, TraceStatus::kOk) << reader.error().str();
  EXPECT_EQ(i, frames.size());
}

INSTANTIATE_TEST_SUITE_P(Corpus, InPlaceDecode,
                         ::testing::Values("contention", "incast", "storm", "backpressure"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace vedr::replay
