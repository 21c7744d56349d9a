// A frame's CRC proves that its bytes arrived intact, not that they make
// sense. These tests rewrite a golden trace through TraceReader ->
// TraceWriter, so every CRC stays valid, with one envelope field set to a
// value the simulator never records. The reader must reject the envelope as
// a typed kBadRecord, and a replay must end with that error instead of
// building a fabric or a plan from it (which aborted the process).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <type_traits>
#include <variant>

#include "replay/collector.h"
#include "replay/trace_reader.h"
#include "replay/trace_writer.h"

#ifndef VEDR_REPLAY_CORPUS_DIR
#error "VEDR_REPLAY_CORPUS_DIR must be defined by the build"
#endif

namespace vedr::replay {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Copies `src` to `dst` record by record, passing the envelope through
/// `mutate` on the way. The writer computes every CRC afresh.
void rewrite(const std::string& src, const std::string& dst,
             const std::function<void(TraceEnvelope&)>& mutate) {
  TraceReader reader(src);
  ASSERT_TRUE(reader.ok()) << reader.error().str();
  TraceWriter writer(dst);
  TraceRecord rec;
  TraceStatus st = TraceStatus::kOk;
  while ((st = reader.next(rec)) == TraceStatus::kOk) {
    std::visit(
        [&](auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, TraceEnvelope>) {
            mutate(v);
            writer.write_envelope(v);
          } else if constexpr (std::is_same_v<T, TraceFooter>) {
            writer.write_footer(v);
          } else if constexpr (std::is_same_v<T, collective::StepRecord>) {
            writer.on_step_record(v);
          } else if constexpr (std::is_same_v<T, PollRegistration>) {
            writer.on_poll_registered(v);
          } else if constexpr (std::is_same_v<T, telemetry::SwitchReport>) {
            writer.on_switch_report_in(v);
          } else if constexpr (std::is_same_v<T, PollTriggerRecord>) {
            writer.on_poll_trigger(v);
          } else if constexpr (std::is_same_v<T, NotificationRecord>) {
            writer.on_notification_sent(v);
          } else if constexpr (std::is_same_v<T, PauseCauseRecord>) {
            writer.on_pause_cause(v);
          } else if constexpr (std::is_same_v<T, TtlDropRecord>) {
            writer.on_ttl_drop(v);
          }
        },
        rec.payload);
  }
  ASSERT_EQ(st, TraceStatus::kEof) << reader.error().str();
  ASSERT_TRUE(writer.close()) << writer.error();
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
    rewrite(source_, path_, mutate);
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

  const std::string source_ = std::string(VEDR_REPLAY_CORPUS_DIR) + "/incast.vtrc";
  std::string path_;
};

TEST_F(HostileEnvelope, UnchangedRewriteIsByteIdenticalAndReplays) {
  rewrite(source_, path_, [](TraceEnvelope&) {});
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
  rewrite(source_, path_, [](TraceEnvelope& env) { env.fat_tree_k = kMaxFatTreeK + 2; });
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

}  // namespace
}  // namespace vedr::replay
