// Which thread frees an offered record. Every heap block carries a tag in
// front of it saying whether the producer thread allocated it for a record
// it offers; freeing a tagged block on any other thread counts as a
// cross-thread free. Serve's rule: a shard worker destroys no record while a
// session is open, so with a keep-alive session open the count must stay 0
// however many sessions are offered, ingested and finished; and the worker
// that finishes the last open session has destroyed what was left before
// the next session can open.
//
// Own binary: it replaces global operator new/delete, in the manner of
// counting_allocator.h (out-of-line replacements, none under sanitizers,
// where the test skips).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_override.h"
#include "replay/trace_reader.h"
#include "serve/server.h"
#include "serve/verdict.h"

namespace {

/// Set on the producer thread only, while it builds a record to offer.
thread_local bool t_tag_allocs = false;
/// Set on the producer thread for the whole test.
thread_local bool t_is_producer = false;

std::atomic<std::uint64_t> g_tagged_allocs{0};
std::atomic<std::uint64_t> g_tagged_frees{0};
std::atomic<std::uint64_t> g_cross_thread_frees{0};
/// Set by the producer once open_session() returned, cleared when that
/// session's final verdict reaches the sink.
std::atomic<bool> g_session_open{false};
std::atomic<std::uint64_t> g_frees_while_open{0};

/// The header in front of every block; 16 bytes keep malloc's alignment.
struct alignas(16) Tag {
  std::uint64_t tagged;
};

}  // namespace

#if VEDR_ALLOC_OVERRIDE
[[gnu::noinline]] void* operator new(std::size_t n) {
  void* base = std::malloc(n + sizeof(Tag));
  if (base == nullptr) throw std::bad_alloc{};
  Tag* tag = static_cast<Tag*>(base);
  tag->tagged = t_tag_allocs ? 1 : 0;
  if (t_tag_allocs) g_tagged_allocs.fetch_add(1, std::memory_order_relaxed);
  return tag + 1;
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  Tag* tag = static_cast<Tag*>(p) - 1;
  if (tag->tagged != 0) {
    g_tagged_frees.fetch_add(1, std::memory_order_relaxed);
    if (!t_is_producer) {
      g_cross_thread_frees.fetch_add(1, std::memory_order_relaxed);
      if (g_session_open.load(std::memory_order_relaxed))
        g_frees_while_open.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::free(tag);
}

[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { ::operator delete(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#endif  // VEDR_ALLOC_OVERRIDE

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

void reset_counts() {
  g_tagged_allocs = 0;
  g_tagged_frees = 0;
  g_cross_thread_frees = 0;
  g_frees_while_open = 0;
}

/// Counts final verdicts. Each one ends the open session, for the tagging
/// operator delete (a final line starts with its type).
class FinalsSink : public VerdictSink {
 public:
  void on_verdict(const std::string& line) override {
    if (line.rfind("{\"type\":\"final\"", 0) != 0) return;
    g_session_open.store(false, std::memory_order_relaxed);
    finals_.fetch_add(1, std::memory_order_release);
  }
  std::uint64_t finals() const { return finals_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> finals_{0};
};

TEST(ProducerFrees, NoShardWorkerFreesAnOfferedRecordWhileASessionIsOpen) {
  if (kSanitized) GTEST_SKIP() << "the allocator is the sanitizer's; nothing is tagged";
  std::vector<DecodedTrace> corpus;
  for (const char* name : {"contention", "incast", "storm", "backpressure"})
    corpus.push_back(decode(name));
  reset_counts();

  t_is_producer = true;
  {
    NullSink sink;
    ServerConfig cfg;
    cfg.shards = 2;
    cfg.roll_interval_ns = 0;
    cfg.session.queue_capacity = 64;  // the producer blocks, the workers take often
    Server server(cfg, &sink);

    const std::uint64_t keep_alive = server.open_session("keep-alive");
    std::vector<std::uint64_t> sids;
    for (int round = 0; round < 2; ++round) {
      for (const DecodedTrace& t : corpus) {
        const std::uint64_t sid = server.open_session("tenant-" + std::to_string(sids.size()));
        sids.push_back(sid);
        for (const auto& [rec, offset] : t.records) {
          // Built on this thread, as a transport's decode builds it.
          t_tag_allocs = true;
          replay::TraceRecord copy = rec;
          t_tag_allocs = false;
          ASSERT_TRUE(server.offer(sid, std::move(copy), offset));
        }
        server.close_session(sid, replay::TraceError{}, t.bytes);
      }
    }

    for (const std::uint64_t sid : sids) {
      const Session* s = server.find_session(sid);
      ASSERT_NE(s, nullptr);
      while (s->state() == SessionState::kActive)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      EXPECT_EQ(s->state(), SessionState::kFinished);
      EXPECT_TRUE(s->digest_matched());
    }

    // Every offered session was ingested and finished; the keep-alive one
    // is still open, so every record the workers used up is parked.
    EXPECT_GT(g_tagged_allocs.load(), 0u);
    EXPECT_GT(g_tagged_frees.load(), 0u);  // offer() destroyed parked records
    EXPECT_EQ(g_cross_thread_frees.load(), 0u)
        << "offered records were freed by another thread";

    server.close_session(keep_alive, replay::TraceError{}, 0);
    server.wait_all_finished();
    server.shutdown();
  }
  // Nothing tagged leaks: every offered record was destroyed by someone.
  EXPECT_EQ(g_tagged_frees.load(), g_tagged_allocs.load());
  t_is_producer = false;
}

TEST(ProducerFrees, LastSessionsLeftoversAreGoneBeforeTheNextSessionOpens) {
  if (kSanitized) GTEST_SKIP() << "the allocator is the sanitizer's; nothing is tagged";
  std::vector<DecodedTrace> corpus;
  for (const char* name : {"contention", "incast", "storm", "backpressure"})
    corpus.push_back(decode(name));
  reset_counts();

  // One session at a time, the next opened as soon as wait_all_finished()
  // returns. The queue holds a whole trace, so the producer runs ahead and
  // closes its session long before the worker is done: the worker,
  // finishing the last open session, destroys most of the trace.
  t_is_producer = true;
  {
    FinalsSink sink;
    ServerConfig cfg;
    cfg.shards = 1;
    cfg.roll_interval_ns = 0;
    Server server(cfg, &sink);
    std::uint64_t sessions = 0;
    for (int round = 0; round < 8; ++round) {
      for (const DecodedTrace& t : corpus) {
        ASSERT_LE(t.records.size(), cfg.session.queue_capacity);
        const std::uint64_t sid = server.open_session("tenant");
        g_session_open.store(true, std::memory_order_relaxed);
        for (const auto& [rec, offset] : t.records) {
          t_tag_allocs = true;
          replay::TraceRecord copy = rec;
          t_tag_allocs = false;
          ASSERT_TRUE(server.offer(sid, std::move(copy), offset));
        }
        server.close_session(sid, replay::TraceError{}, t.bytes);
        server.wait_all_finished();
        ++sessions;
        ASSERT_EQ(sink.finals(), sessions);
      }
    }
    server.shutdown();
  }
  t_is_producer = false;

  EXPECT_GT(g_cross_thread_frees.load(), 0u);  // the worker did destroy leftovers
  EXPECT_EQ(g_frees_while_open.load(), 0u)
      << "a shard worker freed offered records while a session was open";
  EXPECT_EQ(g_tagged_frees.load(), g_tagged_allocs.load());
}

}  // namespace
}  // namespace vedr::serve
