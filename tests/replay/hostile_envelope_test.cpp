// A frame's CRC proves that its bytes arrived intact, not that they make
// sense. These tests rewrite a golden trace through TraceReader ->
// TraceWriter, so every CRC stays valid, with one envelope field set to a
// value the simulator never records. The reader must reject the envelope as
// a typed kBadRecord, and a replay must end with that error instead of
// building a fabric or a plan from it (which aborted the process).
//
// An envelope in range can still name a fabric its records do not fit, and
// a record can name a port its switch does not have. The collector checks
// every switch report against the envelope's fabric and ends the replay
// with kBadRecord (which also aborted the process).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "replay/collector.h"
#include "replay/trace_reader.h"
#include "replay/trace_rewrite.h"

#ifndef VEDR_REPLAY_CORPUS_DIR
#error "VEDR_REPLAY_CORPUS_DIR must be defined by the build"
#endif

namespace vedr::replay {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

class HostileEnvelope : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, in parallel, in one TempDir().
    path_ = ::testing::TempDir() + "/hostile." + std::to_string(::getpid()) + ".vtrc";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Rewrites the incast corpus trace with `mutate` applied to its envelope
  /// and checks that the reader and a replay both stop at the envelope.
  void expect_rejected(const std::function<void(TraceEnvelope&)>& mutate) {
    rewrite_trace(source_, path_, mutate);
    {
      TraceReader reader(path_);
      ASSERT_TRUE(reader.ok()) << reader.error().str();
      TraceRecord rec;
      EXPECT_EQ(reader.next(rec), TraceStatus::kBadRecord);
      EXPECT_EQ(reader.error().offset, kFileHeaderBytes);
    }
    TraceReader reader(path_);
    StreamingCollector collector;
    const ReplayResult result = collector.replay(reader);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error.status, TraceStatus::kBadRecord) << result.error.str();
  }

  /// Rewrites the incast corpus trace with both edits and checks that the
  /// replay ends in kBadRecord at a switch report whose detail names
  /// `field`.
  void expect_record_rejected(const std::function<void(TraceEnvelope&)>& mutate_envelope,
                              const std::function<void(telemetry::SwitchReport&)>& mutate_report,
                              const std::string& field) {
    rewrite_trace(source_, path_, mutate_envelope, mutate_report);
    TraceReader reader(path_);
    StreamingCollector collector;
    const ReplayResult result = collector.replay(reader);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.digest_matches);
    EXPECT_EQ(result.error.status, TraceStatus::kBadRecord) << result.error.str();
    EXPECT_GT(result.error.offset, kFileHeaderBytes);
    EXPECT_NE(result.error.detail.find("switch report: " + field), std::string::npos)
        << result.error.detail;
  }

  /// The recorded k = 4 fabric numbers hosts 0..15 and switches 16..35; in a
  /// larger fat-tree those switch ids are hosts, so the first report does
  /// not fit.
  void expect_larger_fabric_rejected(int k) {
    expect_record_rejected([k](TraceEnvelope& env) { env.fat_tree_k = k; }, {}, "switch_id 16");
  }

  const std::string source_ = std::string(VEDR_REPLAY_CORPUS_DIR) + "/incast.vtrc";
  std::string path_;
};

TEST_F(HostileEnvelope, UnchangedRewriteIsByteIdenticalAndReplays) {
  rewrite_trace(source_, path_, [](TraceEnvelope&) {});
  EXPECT_EQ(read_file(path_), read_file(source_));
  TraceReader reader(path_);
  StreamingCollector collector;
  const ReplayResult result = collector.replay(reader);
  EXPECT_TRUE(result.ok) << result.error.str();
  EXPECT_TRUE(result.digest_matches);
}

TEST_F(HostileEnvelope, FatTreeKZero) {
  expect_rejected([](TraceEnvelope& env) { env.fat_tree_k = 0; });
}

TEST_F(HostileEnvelope, FatTreeKOdd) {
  expect_rejected([](TraceEnvelope& env) { env.fat_tree_k = 3; });
}

TEST_F(HostileEnvelope, FatTreeKAboveTheCap) {
  // Only the reader: at a build without the cap, a replay would go on to
  // build this fabric.
  rewrite_trace(source_, path_, [](TraceEnvelope& env) { env.fat_tree_k = kMaxFatTreeK + 2; });
  TraceReader reader(path_);
  TraceRecord rec;
  EXPECT_EQ(reader.next(rec), TraceStatus::kBadRecord);
}

TEST_F(HostileEnvelope, OneParticipant) {
  expect_rejected([](TraceEnvelope& env) { env.participants.resize(1); });
}

TEST_F(HostileEnvelope, RepeatedParticipant) {
  expect_rejected([](TraceEnvelope& env) { env.participants[1] = env.participants[0]; });
}

TEST_F(HostileEnvelope, ParticipantThatIsNotAHost) {
  // A k = 4 fat-tree has hosts 0..15; node 16 is its first switch.
  expect_rejected([](TraceEnvelope& env) { env.participants[0] = 16; });
}

TEST_F(HostileEnvelope, NegativeParticipant) {
  expect_rejected([](TraceEnvelope& env) { env.participants[0] = -1; });
}

TEST_F(HostileEnvelope, CcStepBytesZero) {
  expect_rejected([](TraceEnvelope& env) { env.cc_step_bytes = 0; });
}

TEST_F(HostileEnvelope, CcStepBytesNegative) {
  expect_rejected([](TraceEnvelope& env) { env.cc_step_bytes = -5; });
}

TEST_F(HostileEnvelope, RecordsDoNotFitAK8Fabric) { expect_larger_fabric_rejected(8); }

TEST_F(HostileEnvelope, RecordsDoNotFitAK16Fabric) { expect_larger_fabric_rejected(16); }

TEST_F(HostileEnvelope, RecordsDoNotFitAK32Fabric) { expect_larger_fabric_rejected(32); }

TEST_F(HostileEnvelope, SwitchReportPortOutOfRange) {
  bool edited = false;
  expect_record_rejected(
      [](TraceEnvelope&) {},
      [&](telemetry::SwitchReport& r) {
        if (edited || r.ports.empty()) return;
        r.ports[0].port.port = 999;
        edited = true;
      },
      "ports[0].port p(");
}

TEST_F(HostileEnvelope, SwitchReportNegativeContribution) {
  bool edited = false;
  expect_record_rejected(
      [](TraceEnvelope&) {},
      [&](telemetry::SwitchReport& r) {
        if (edited || r.causes.empty() || r.causes[0].contributions.empty()) return;
        r.causes[0].contributions[0].second = -1;
        edited = true;
      },
      "causes[0].contributions[0].bytes -1");
}

}  // namespace
}  // namespace vedr::replay
