// A step's verdict line is the diagnosis over every record up to and
// including the one that closed the step (the first record of a later step,
// or the footer). So the lines a session emits depend on its trace alone:
// not on how the records were sliced into pumps, how far the producer ran
// ahead of the shard worker, or the queue's capacity.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "replay/trace_reader.h"
#include "replay/trace_rewrite.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/verdict.h"
#include "sim/stats.h"

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

struct DecodedTrace {
  std::vector<std::pair<replay::TraceRecord, std::uint64_t>> records;
  std::uint64_t bytes = 0;
};

DecodedTrace decode(const std::string& path) {
  DecodedTrace t;
  replay::TraceReader reader(path);
  replay::TraceRecord rec;
  std::uint64_t offset = reader.bytes_read();
  while (reader.next(rec) == replay::TraceStatus::kOk) {
    t.records.emplace_back(rec, offset);
    offset = reader.bytes_read();
  }
  EXPECT_EQ(reader.error().status, replay::TraceStatus::kOk) << reader.error().str();
  t.bytes = reader.bytes_read();
  return t;
}

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

/// The id a fresh Server gives its first session, so lines from a Session
/// driven directly compare byte for byte with lines from a Server.
constexpr std::uint64_t kFirstSessionId = 1;

/// Pumps until the session has nothing more to ingest right now.
PumpResult pump_until_idle(Session& s, VerdictSink& sink, sim::StatsRegistry& stats) {
  PumpResult r = PumpResult::kMore;
  while ((r = s.pump(sink, stats)) == PumpResult::kMore) {
  }
  return r;
}

/// The reference: one pump per offered record, so every line is emitted
/// with nothing queued behind its closing record.
std::vector<std::string> lines_pumped_per_record(const DecodedTrace& t) {
  CaptureSink sink;
  sim::StatsRegistry stats;
  SpentRecords spent;
  Session s(kFirstSessionId, "tenant", 0, SessionConfig{}, spent);
  for (const auto& [rec, offset] : t.records) {
    EXPECT_TRUE(s.offer(replay::TraceRecord(rec), offset));
    pump_until_idle(s, sink, stats);
  }
  s.close_input(replay::TraceError{}, t.bytes);
  pump_until_idle(s, sink, stats);
  EXPECT_EQ(s.state(), SessionState::kFinished);
  return sink.lines();
}

/// The whole trace queued before the first pump: every pump slice ingests
/// a full slice of records (session.cpp's kPumpBatch), and many closing
/// records sit mid-slice.
std::vector<std::string> lines_pumped_after_queueing(const DecodedTrace& t) {
  CaptureSink sink;
  sim::StatsRegistry stats;
  SessionConfig cfg;
  cfg.queue_capacity = t.records.size();
  SpentRecords spent;
  Session s(kFirstSessionId, "tenant", 0, cfg, spent);
  for (const auto& [rec, offset] : t.records)
    EXPECT_TRUE(s.offer(replay::TraceRecord(rec), offset));
  s.close_input(replay::TraceError{}, t.bytes);
  while (s.state() == SessionState::kActive) s.pump(sink, stats);
  EXPECT_EQ(s.state(), SessionState::kFinished);
  return sink.lines();
}

/// A producer thread racing one shard worker through a capacity-2 queue.
std::vector<std::string> lines_through_tiny_queue(const DecodedTrace& t) {
  CaptureSink sink;
  ServerConfig cfg;
  cfg.shards = 1;
  cfg.session.queue_capacity = 2;
  Server server(cfg, &sink);
  const std::uint64_t sid = server.open_session("tenant");
  EXPECT_EQ(sid, kFirstSessionId);
  std::thread producer([&server, &t, sid] {
    for (const auto& [rec, offset] : t.records) EXPECT_TRUE(server.offer(sid, rec, offset));
    server.close_session(sid, replay::TraceError{}, t.bytes);
  });
  producer.join();
  server.wait_all_finished();
  const Session* s = server.find_session(sid);
  EXPECT_NE(s, nullptr);
  if (s != nullptr) {
    EXPECT_EQ(s->state(), SessionState::kFinished);
  }
  server.shutdown();
  return sink.lines();
}

TEST(StepVerdicts, LinesDependOnTheTraceNotOnPumpTiming) {
  for (const std::string& name : corpus_names()) {
    SCOPED_TRACE(name);
    const DecodedTrace t = decode(corpus_path(name));
    const std::vector<std::string> reference = lines_pumped_per_record(t);
    ASSERT_GE(reference.size(), 2u);
    EXPECT_NE(reference.back().find("\"digest_match\":true"), std::string::npos);
    EXPECT_EQ(lines_pumped_after_queueing(t), reference);
    EXPECT_EQ(lines_through_tiny_queue(t), reference);
  }
}

TEST(StepVerdicts, FinishedSessionFreesItsBuffersAndRefusesLateOffers) {
  const DecodedTrace t = decode(corpus_path("storm"));
  CaptureSink sink;
  sim::StatsRegistry stats;
  SessionConfig cfg;
  cfg.queue_capacity = 64;
  SpentRecords spent;
  Session s(kFirstSessionId, "tenant", 0, cfg, spent);
  for (const auto& [rec, offset] : t.records) {
    ASSERT_TRUE(s.offer(replay::TraceRecord(rec), offset));
    if (s.queue_stats().size == cfg.queue_capacity) pump_until_idle(s, sink, stats);
  }
  pump_until_idle(s, sink, stats);
  ASSERT_EQ(s.state(), SessionState::kFinished);  // the footer finalizes
  EXPECT_TRUE(s.digest_matched());

  // The counters outlive the collector: every record was taken and released.
  const common::QueueStats q = s.queue_stats();
  EXPECT_EQ(q.pushed, t.records.size());
  EXPECT_EQ(q.popped, q.pushed);
  EXPECT_EQ(q.size, 0u);
  EXPECT_EQ(s.frames_ingested(), t.records.size());
  // The session holds none of its records: each was parked for a producer
  // thread to destroy.
  EXPECT_EQ(spent.size(), t.records.size());
  spent.release();
  EXPECT_EQ(spent.size(), 0u);

  // A late offer is refused by the closed queue; a late pump does nothing.
  EXPECT_FALSE(s.offer(replay::TraceRecord(t.records.front().first), 0));
  EXPECT_EQ(s.pump(sink, stats), PumpResult::kIdle);
  EXPECT_EQ(s.queue_stats().pushed, t.records.size());
  EXPECT_EQ(s.queue_stats().dropped, 0u);
}

TEST(HostileSession, PlanMisfitEndsOnlyItsOwnSession) {
  // The incast trace with one poll registration naming flow -1, every CRC
  // valid, fed beside the four golden traces: its session ends with an
  // error final and every golden session still digest-matches.
  const std::string hostile =
      ::testing::TempDir() + "/serve_plan_misfit." + std::to_string(::getpid()) + ".vtrc";
  bool edited = false;
  replay::rewrite_trace(corpus_path("incast"), hostile, {}, {}, {},
                        [&edited](replay::PollRegistration& p) {
                          if (edited) return;
                          p.flow = -1;
                          edited = true;
                        });
  std::vector<DecodedTrace> traces;
  traces.push_back(decode(hostile));
  std::remove(hostile.c_str());
  for (const std::string& name : corpus_names()) traces.push_back(decode(corpus_path(name)));

  CaptureSink sink;
  ServerConfig cfg;
  cfg.shards = 2;
  Server server(cfg, &sink);
  std::vector<std::uint64_t> sids;
  for (std::size_t i = 0; i < traces.size(); ++i)
    sids.push_back(server.open_session(i == 0 ? "hostile" : corpus_names()[i - 1]));
  // Interleave every stream record by record.
  for (std::size_t r = 0;; ++r) {
    bool any = false;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const DecodedTrace& t = traces[i];
      if (r < t.records.size()) {
        ASSERT_TRUE(server.offer(sids[i], t.records[r].first, t.records[r].second));
        any = true;
      } else if (r == t.records.size()) {
        server.close_session(sids[i], replay::TraceError{}, t.bytes);
      }
    }
    if (!any) break;
  }
  server.wait_all_finished();

  const Session* bad = server.find_session(sids[0]);
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->state(), SessionState::kError);
  EXPECT_FALSE(bad->digest_matched());
  EXPECT_NE(bad->final_error().find("poll registration: flow -1 is not a flow of the plan"),
            std::string::npos)
      << bad->final_error();
  for (std::size_t i = 1; i < sids.size(); ++i) {
    const Session* good = server.find_session(sids[i]);
    ASSERT_NE(good, nullptr);
    EXPECT_EQ(good->state(), SessionState::kFinished) << corpus_names()[i - 1];
    EXPECT_TRUE(good->digest_matched()) << corpus_names()[i - 1];
  }
  server.shutdown();
}

}  // namespace
}  // namespace vedr::serve
