// The records a shard worker is done with wait in the server's spent list
// until a producer call destroys them (serve.queue_spent). This checks the
// list's memory bound: between a producer's calls it holds at most what the
// queues held at the previous call, a late call empties it, and it is empty
// whenever no session is open and after shutdown().

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "replay/trace_reader.h"
#include "serve/server.h"
#include "serve/verdict.h"

namespace vedr::serve {
namespace {

struct DecodedTrace {
  std::vector<std::pair<replay::TraceRecord, std::uint64_t>> records;
  std::uint64_t bytes = 0;
};

DecodedTrace decode(const std::string& name) {
  DecodedTrace t;
  replay::TraceReader reader(std::string(VEDR_REPLAY_CORPUS_DIR) + "/" + name + ".vtrc");
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

class NullSink : public VerdictSink {
 public:
  void on_verdict(const std::string&) override {}
};

std::int64_t queue_spent(const Server& server) {
  return server.metrics_snapshot().counters.at("serve.queue_spent");
}

void wait_until_done(const Session& s) {
  while (s.state() == SessionState::kActive)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(SpentRecords, StayWithinTheQueueBoundAndEmptyWhenNoSessionIsOpen) {
  const DecodedTrace t = decode("storm");
  NullSink sink;
  ServerConfig cfg;
  cfg.shards = 1;
  cfg.roll_interval_ns = 0;
  cfg.session.queue_capacity = 16;  // far below the trace: the bound is load-bearing
  const auto cap = static_cast<std::int64_t>(cfg.session.queue_capacity);
  ASSERT_GT(t.records.size(), 4 * cfg.session.queue_capacity);
  Server server(cfg, &sink);
  EXPECT_EQ(queue_spent(server), 0);

  // A keep-alive session stays open, so no worker destroys what it parks.
  const std::uint64_t keep_alive = server.open_session("keep-alive");
  const std::uint64_t sid = server.open_session("tenant");
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    ASSERT_TRUE(server.offer(sid, t.records[i].first, t.records[i].second));
    // Each call destroyed what was parked before it, so what waits now was
    // held by the queue at that call.
    if (i % 8 == 0) {
      EXPECT_LE(queue_spent(server), cap) << "after record " << i;
    }
  }
  server.close_session(sid, replay::TraceError{}, t.bytes);
  const Session* s = server.find_session(sid);
  ASSERT_NE(s, nullptr);
  wait_until_done(*s);
  EXPECT_EQ(s->state(), SessionState::kFinished);
  EXPECT_TRUE(s->digest_matched());
  EXPECT_LE(queue_spent(server), cap);

  // Any producer call, even a refused late offer, destroys what is parked.
  EXPECT_FALSE(server.offer(sid, t.records.front().first, 0));
  EXPECT_EQ(queue_spent(server), 0);

  // The session that finishes last takes what no producer came back for.
  const std::uint64_t last = server.open_session("last");
  for (const auto& [rec, offset] : t.records) ASSERT_TRUE(server.offer(last, rec, offset));
  server.close_session(keep_alive, replay::TraceError{}, 0);
  server.close_session(last, replay::TraceError{}, t.bytes);
  server.wait_all_finished();
  EXPECT_EQ(queue_spent(server), 0);

  // Shutdown mid-stream: the drain parks what the queue held, and
  // shutdown() destroys it once the workers are gone.
  const std::uint64_t cut = server.open_session("cut");
  for (std::size_t i = 0; i < t.records.size() / 2; ++i)
    ASSERT_TRUE(server.offer(cut, t.records[i].first, t.records[i].second));
  server.shutdown();
  EXPECT_EQ(queue_spent(server), 0);
  const common::QueueStats q = server.find_session(cut)->queue_stats();
  EXPECT_EQ(q.pushed, q.popped + q.size);
}

}  // namespace
}  // namespace vedr::serve
