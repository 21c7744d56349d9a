// Verdict parity: the daemon's incremental per-step diagnosis path must land
// on exactly the batch replay diagnosis for every golden corpus trace — same
// JSON, and a footer digest match — no matter how the records were sliced.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "replay/collector.h"
#include "replay/trace_reader.h"
#include "replay/trace_rewrite.h"
#include "serve/server.h"
#include "serve/tail_source.h"
#include "serve/verdict.h"

namespace vedr::serve {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(VEDR_REPLAY_CORPUS_DIR) + "/" + name + ".vtrc";
}

const std::vector<std::string>& corpus_names() {
  static const std::vector<std::string> kNames = {"contention", "incast", "storm",
                                                  "backpressure"};
  return kNames;
}

/// Thread-safe capture of every verdict line, for assertions after the fact.
class CaptureSink : public VerdictSink {
 public:
  void on_verdict(const std::string& line) override {
    common::MutexLock lock(mu_);
    lines_.push_back(line);
  }
  std::vector<std::string> lines() const {
    common::MutexLock lock(mu_);
    return lines_;
  }

 private:
  mutable common::Mutex mu_;
  std::vector<std::string> lines_ VEDR_GUARDED_BY(mu_);
};

replay::ReplayResult batch_replay(const std::string& name) {
  replay::TraceReader reader(corpus_path(name));
  replay::StreamingCollector collector;
  return collector.replay(reader);
}

int extract_int_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " missing in: " << line;
  return std::atoi(line.c_str() + at + key.size() + 3);
}

void check_verdict_stream(const std::vector<std::string>& lines,
                          const replay::ReplayResult& batch, int expected_steps) {
  ASSERT_FALSE(lines.empty());

  // Step verdicts: one per step, strictly increasing, covering every step.
  int next_step = 0;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    ASSERT_NE(lines[i].find("\"type\":\"step\""), std::string::npos);
    EXPECT_EQ(extract_int_field(lines[i], "step"), next_step);
    ++next_step;
  }
  EXPECT_EQ(next_step, expected_steps);

  // Final verdict: identical diagnosis JSON to the batch path, digest match.
  const std::string& final_line = lines.back();
  ASSERT_NE(final_line.find("\"type\":\"final\""), std::string::npos) << final_line;
  EXPECT_NE(final_line.find("\"state\":\"finished\""), std::string::npos) << final_line;
  EXPECT_NE(final_line.find("\"digest_match\":true"), std::string::npos) << final_line;
  const std::string expect_tail = ",\"diagnosis\":" + batch.diagnosis_json + "}";
  ASSERT_GE(final_line.size(), expect_tail.size());
  EXPECT_EQ(final_line.substr(final_line.size() - expect_tail.size()), expect_tail)
      << "daemon final diagnosis diverged from batch replay";
}

/// Drives one corpus trace through a Server by offering decoded records
/// directly (the bench's shape) and checks parity against batch replay.
void run_direct_parity(const std::string& name, int shards, std::size_t queue_cap) {
  SCOPED_TRACE(name);
  const replay::ReplayResult batch = batch_replay(name);
  ASSERT_TRUE(batch.ok) << batch.error.str();
  ASSERT_TRUE(batch.digest_matches);

  CaptureSink sink;
  ServerConfig cfg;
  cfg.shards = shards;
  cfg.session.queue_capacity = queue_cap;
  Server server(cfg, &sink);
  const std::uint64_t sid = server.open_session(name);

  replay::TraceReader reader(corpus_path(name));
  replay::TraceRecord rec;
  std::uint64_t offset = reader.bytes_read();
  int max_step = -1;
  while (reader.next(rec) == replay::TraceStatus::kOk) {
    if (rec.type == replay::RecordType::kStepRecord)
      max_step = std::max(max_step, std::get<collective::StepRecord>(rec.payload).step);
    ASSERT_TRUE(server.offer(sid, rec, offset));
    offset = reader.bytes_read();
  }
  server.close_session(sid, replay::TraceError{}, reader.bytes_read());
  server.wait_all_finished();

  const Session* session = server.find_session(sid);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->state(), SessionState::kFinished);
  EXPECT_TRUE(session->digest_matched());
  EXPECT_EQ(session->queue_stats().dropped, 0u);
  EXPECT_EQ(session->steps_closed(), max_step);

  check_verdict_stream(sink.lines(), batch, max_step + 1);
  server.shutdown();
}

TEST(SessionParity, EveryCorpusTraceMatchesBatchReplay) {
  for (const auto& name : corpus_names()) run_direct_parity(name, 2, 1024);
}

TEST(SessionParity, TinyQueueBackpressureChangesNothing) {
  // Capacity 2 forces constant blocking between producer and pump; the
  // verdict stream must be byte-identical anyway.
  run_direct_parity("incast", 1, 2);
}

TEST(SessionParity, TailSourceTransportReachesSameVerdict) {
  const replay::ReplayResult batch = batch_replay("storm");
  ASSERT_TRUE(batch.ok);

  CaptureSink sink;
  ServerConfig cfg;
  Server server(cfg, &sink);
  FileTailSource source(&server, corpus_path("storm"), "storm-tenant");
  source.start();
  server.wait_all_finished();
  source.stop();
  EXPECT_TRUE(source.done());

  const Session* session = server.find_session(source.session_id());
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->state(), SessionState::kFinished);
  EXPECT_TRUE(session->digest_matched());
  const std::vector<std::string> lines = sink.lines();
  ASSERT_FALSE(lines.empty());
  const std::string expect_tail = ",\"diagnosis\":" + batch.diagnosis_json + "}";
  EXPECT_EQ(lines.back().substr(lines.back().size() - expect_tail.size()), expect_tail);
  server.shutdown();
}

TEST(SessionParity, InputClosedWithoutFooterIsAnErrorFinal) {
  CaptureSink sink;
  ServerConfig cfg;
  Server server(cfg, &sink);
  const std::uint64_t sid = server.open_session("interrupted");

  replay::TraceReader reader(corpus_path("contention"));
  replay::TraceRecord rec;
  std::uint64_t offset = reader.bytes_read();
  for (int i = 0; i < 10 && reader.next(rec) == replay::TraceStatus::kOk; ++i) {
    ASSERT_TRUE(server.offer(sid, rec, offset));
    offset = reader.bytes_read();
  }
  server.close_session(
      sid,
      replay::TraceError{replay::TraceStatus::kIoError, offset, "transport lost"},
      offset);
  server.wait_all_finished();

  const Session* session = server.find_session(sid);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->state(), SessionState::kError);
  EXPECT_FALSE(session->digest_matched());
  EXPECT_NE(session->final_error().find("transport lost"), std::string::npos);
  const std::vector<std::string> lines = sink.lines();
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"state\":\"error\""), std::string::npos);
  EXPECT_NE(lines.back().find("transport lost"), std::string::npos);
  server.shutdown();
}

TEST(SessionParity, DropPolicyAccountsDropsInFinalVerdict) {
  CaptureSink sink;
  ServerConfig cfg;
  cfg.shards = 1;
  cfg.session.queue_capacity = 1;
  cfg.session.policy = OverflowPolicy::kDropNewest;
  cfg.session.emit_step_verdicts = false;
  Server server(cfg, &sink);
  const std::uint64_t sid = server.open_session("lossy");
  Session* session = server.find_session(sid);
  ASSERT_NE(session, nullptr);

  replay::TraceReader reader(corpus_path("incast"));
  replay::TraceRecord rec;
  std::uint64_t offset = reader.bytes_read();
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  while (reader.next(rec) == replay::TraceStatus::kOk) {
    if (server.offer(sid, rec, offset)) {
      ++accepted;
    } else {
      ++rejected;
    }
    offset = reader.bytes_read();
  }
  server.close_session(sid, replay::TraceError{}, reader.bytes_read());
  server.wait_all_finished();

  const common::QueueStats q = session->queue_stats();
  EXPECT_EQ(q.pushed, accepted);
  EXPECT_EQ(q.dropped, rejected);
  EXPECT_EQ(session->frames_ingested(), accepted);
  // With capacity 1 and a single-threaded box some records may well drop; if
  // the envelope or footer was among them the session lands in kError — both
  // outcomes are valid, the invariant is exact drop accounting and a final
  // verdict either way.
  EXPECT_NE(session->state(), SessionState::kActive);
  const std::vector<std::string> lines = sink.lines();
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"type\":\"final\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"dropped\":" + std::to_string(rejected)),
            std::string::npos);
  server.shutdown();
}

TEST(SessionParity, HostileTraceEndsOnlyItsOwnSession) {
  // The incast trace rewritten for a k = 16 fabric: every CRC valid and the
  // envelope in range, but its switch ids are hosts of that fabric. Fed
  // beside a golden trace, it must end its own session with an error final
  // while the daemon keeps running and the golden tenant still matches.
  const std::string hostile =
      ::testing::TempDir() + "/serve_hostile." + std::to_string(::getpid()) + ".vtrc";
  replay::rewrite_trace(corpus_path("incast"), hostile,
                        [](replay::TraceEnvelope& env) { env.fat_tree_k = 16; });
  const replay::ReplayResult batch = batch_replay("storm");
  ASSERT_TRUE(batch.ok) << batch.error.str();

  CaptureSink sink;
  ServerConfig cfg;
  cfg.shards = 2;
  Server server(cfg, &sink);
  const std::uint64_t bad = server.open_session("hostile");
  const std::uint64_t good = server.open_session("golden");
  replay::TraceReader bad_reader(hostile);
  replay::TraceReader good_reader(corpus_path("storm"));
  ASSERT_TRUE(bad_reader.ok()) << bad_reader.error().str();
  replay::TraceRecord rec;
  bool bad_open = true;
  bool good_open = true;
  while (bad_open || good_open) {
    // Interleave the two streams record by record.
    if (bad_open) {
      const std::uint64_t offset = bad_reader.bytes_read();
      if (bad_reader.next(rec) == replay::TraceStatus::kOk) {
        ASSERT_TRUE(server.offer(bad, rec, offset));
      } else {
        server.close_session(bad, replay::TraceError{}, bad_reader.bytes_read());
        bad_open = false;
      }
    }
    if (good_open) {
      const std::uint64_t offset = good_reader.bytes_read();
      if (good_reader.next(rec) == replay::TraceStatus::kOk) {
        ASSERT_TRUE(server.offer(good, rec, offset));
      } else {
        server.close_session(good, replay::TraceError{}, good_reader.bytes_read());
        good_open = false;
      }
    }
  }
  server.wait_all_finished();
  std::remove(hostile.c_str());

  const Session* bad_session = server.find_session(bad);
  ASSERT_NE(bad_session, nullptr);
  EXPECT_EQ(bad_session->state(), SessionState::kError);
  EXPECT_FALSE(bad_session->digest_matched());
  EXPECT_NE(bad_session->final_error().find("switch report: switch_id 16"), std::string::npos)
      << bad_session->final_error();

  const Session* good_session = server.find_session(good);
  ASSERT_NE(good_session, nullptr);
  EXPECT_EQ(good_session->state(), SessionState::kFinished);
  EXPECT_TRUE(good_session->digest_matched());

  const std::string bad_final = "{\"type\":\"final\",\"session\":" + std::to_string(bad) + ",";
  const std::string good_final =
      "{\"type\":\"final\",\"session\":" + std::to_string(good) + ",";
  int finals = 0;
  for (const std::string& line : sink.lines()) {
    if (line.rfind(bad_final, 0) == 0) {
      ++finals;
      EXPECT_NE(line.find("\"state\":\"error\""), std::string::npos) << line;
      EXPECT_NE(line.find("bad-record"), std::string::npos) << line;
    } else if (line.rfind(good_final, 0) == 0) {
      ++finals;
      EXPECT_NE(line.find("\"digest_match\":true"), std::string::npos) << line;
      const std::string expect_tail = ",\"diagnosis\":" + batch.diagnosis_json + "}";
      ASSERT_GE(line.size(), expect_tail.size());
      EXPECT_EQ(line.substr(line.size() - expect_tail.size()), expect_tail);
    }
  }
  EXPECT_EQ(finals, 2);
  server.shutdown();
}

}  // namespace
}  // namespace vedr::serve
