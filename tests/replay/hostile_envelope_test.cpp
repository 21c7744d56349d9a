// A frame's CRC proves that its bytes arrived intact, not that they make
// sense. These tests rewrite a golden trace through TraceReader ->
// TraceWriter, so every CRC stays valid, with one envelope field set to a
// value the simulator never records. The reader must reject the envelope as
// a typed kBadRecord, and a replay must end with that error instead of
// building a fabric or a plan from it (which aborted the process).
//
// An envelope in range can still name a fabric its records do not fit, and
// a record can name a port its switch does not have, or a flow or step its
// plan does not have. The collector checks every switch report against the
// envelope's fabric, and every step record and poll registration against
// its plan, and ends the replay with kBadRecord (which also aborted the
// process, or let one record size the analyzer's per-step state).
#include <gtest/gtest.h>
#include <unistd.h>

#include <climits>
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

  /// Rewrites the incast corpus trace with the `nth` step record (or poll
  /// registration) edited and checks that the replay ends in kBadRecord
  /// with `detail`. The trace's plan is a ring of 8 flows over 7 steps.
  void expect_step_rejected(int nth, const std::function<void(collective::StepRecord&)>& mutate,
                            const std::string& detail) {
    int seen = 0;
    rewrite_trace(source_, path_, {}, {}, [&](collective::StepRecord& r) {
      if (seen++ == nth) mutate(r);
    });
    expect_plan_misfit("step record: " + detail);
  }
  void expect_poll_rejected(int nth, const std::function<void(PollRegistration&)>& mutate,
                            const std::string& detail) {
    int seen = 0;
    rewrite_trace(source_, path_, {}, {}, {}, [&](PollRegistration& p) {
      if (seen++ == nth) mutate(p);
    });
    expect_plan_misfit("poll registration: " + detail);
  }
  void expect_plan_misfit(const std::string& detail) {
    TraceReader reader(path_);
    StreamingCollector collector;
    const ReplayResult result = collector.replay(reader);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.digest_matches);
    EXPECT_EQ(result.error.status, TraceStatus::kBadRecord) << result.error.str();
    EXPECT_GT(result.error.offset, kFileHeaderBytes);
    EXPECT_EQ(result.error.detail, detail);
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

TEST_F(HostileEnvelope, StepRecordFlowOutsideThePlan) {
  expect_step_rejected(3, [](collective::StepRecord& r) { r.flow_index = 8; },
                       "flow_index 8 is not a flow of the plan");
}

TEST_F(HostileEnvelope, StepRecordNegativeStep) {
  expect_step_rejected(3, [](collective::StepRecord& r) { r.step = -1; },
                       "step -1 is not a step of the plan");
}

TEST_F(HostileEnvelope, StepRecordStepFarBeyondThePlan) {
  // Unchecked, this one record would make diagnose() size its per-step
  // state to 2^31 entries and a serve session emit a verdict line per step.
  expect_step_rejected(3, [](collective::StepRecord& r) { r.step = INT_MAX; },
                       "step 2147483647 is not a step of the plan");
}

TEST_F(HostileEnvelope, StepRecordDependsOnAFlowOutsideThePlan) {
  expect_step_rejected(20, [](collective::StepRecord& r) { r.dep_flow = 99; },
                       "dep_flow 99 is not a flow of the plan");
}

TEST_F(HostileEnvelope, StepRecordDependsOnAStepOutsideThePlan) {
  expect_step_rejected(20, [](collective::StepRecord& r) { r.dep_step = 7; },
                       "dep_step 7 is not a step of the plan");
}

TEST_F(HostileEnvelope, StepRecordWaitsOnItself) {
  expect_step_rejected(20,
                       [](collective::StepRecord& r) {
                         r.flow_index = 2;
                         r.step = 3;
                         r.dep_flow = 2;
                         r.dep_step = 3;
                       },
                       "flow 2 step 3 waits on itself");
}

TEST_F(HostileEnvelope, StepRecordEndsBeforeItStarts) {
  expect_step_rejected(3,
                       [](collective::StepRecord& r) {
                         r.start_time = 5000;
                         r.end_time = 4999;
                       },
                       "end_time 4999 is before start_time 5000");
}

TEST_F(HostileEnvelope, PollRegistrationFlowOutsideThePlan) {
  expect_poll_rejected(0, [](PollRegistration& p) { p.flow = -1; },
                       "flow -1 is not a flow of the plan");
}

TEST_F(HostileEnvelope, PollRegistrationStepOutsideThePlan) {
  expect_poll_rejected(0, [](PollRegistration& p) { p.step = 7; },
                       "step 7 is not a step of the plan");
}

}  // namespace
}  // namespace vedr::replay
