// Multithreaded stress tests for the shared-state layers that the sharded
// engine and streaming daemon (ROADMAP items 1 and 3) will sit on. They run
// in every lane, but their real job is giving ThreadSanitizer genuine
// interleavings to check: build with `cmake -DVEDR_SANITIZE=thread` and run
// this binary to prove the obs layer, StatsRegistry, check hooks, and the
// suite work queue are race-free under contention.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "eval/experiment.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/windowed.h"
#include "sim/stats.h"

namespace vedr {
namespace {

constexpr int kThreads = 8;

// --- StatsRegistry ----------------------------------------------------------

TEST(TsanStress, StatsRegistryConcurrentKeyedAccumulation) {
  sim::StatsRegistry reg;
  constexpr int kOps = 4000;

  std::vector<std::thread> pool;
  pool.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      for (int i = 0; i < kOps; ++i) {
        reg.add_counter("shared.counter");
        reg.observe("shared.hist", i % 1024);
      }
    });
  }
  // A concurrent reader: keyed reads and whole-map snapshots must be safe
  // while writers are live (the streaming daemon scrapes Prometheus mid-run).
  std::atomic<bool> done{false};
  pool.emplace_back([&reg, &done] {
    while (!done.load(std::memory_order_acquire)) {
      (void)reg.counter("shared.counter");
      (void)obs::snapshot(reg);
    }
  });
  for (int t = 0; t < kThreads; ++t) pool[static_cast<std::size_t>(t)].join();
  done.store(true, std::memory_order_release);
  pool.back().join();

  // The mutex makes keyed accumulation lossless: exact totals, not "close".
  EXPECT_EQ(reg.counter("shared.counter"), static_cast<std::int64_t>(kThreads) * kOps);
  EXPECT_EQ(reg.hist("shared.hist").count(), static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(TsanStress, StatsRegistryConcurrentCellInterning) {
  sim::StatsRegistry reg;
  constexpr int kOps = 20000;

  // Each thread interns its own cells (per-thread names) and bumps through
  // the pointers lock-free — the single-writer cell contract. Interning
  // itself contends on the registry mutex from all threads at once.
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, t] {
      const std::string name = "cell.worker." + std::to_string(t);
      std::int64_t* cell = reg.counter_cell(name);
      obs::Histogram* hist = reg.hist_cell(name + ".hist");
      for (int i = 0; i < kOps; ++i) {
        ++*cell;
        hist->add(i % 4096);
      }
    });
  }
  for (auto& th : pool) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const std::string name = "cell.worker." + std::to_string(t);
    EXPECT_EQ(reg.counter(name), kOps);
    EXPECT_EQ(reg.hist(name + ".hist").count(), static_cast<std::uint64_t>(kOps));
  }
}

// --- obs trace rings --------------------------------------------------------

TEST(TsanStress, ConcurrentSpanEmissionAndDropAccounting) {
  // Small rings so every thread wraps: the drop accounting is exercised, not
  // just the happy path.
  obs::trace_enable(/*events_per_thread=*/1024);
  obs::trace_reset();
  constexpr int kIters = 2000;  // 3 events per iteration, > ring capacity

  std::vector<std::thread> pool;
  pool.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        VEDR_SPAN("stress", "iteration");
        VEDR_INSTANT("stress", "tick", /*sim_ns=*/i, /*arg=*/static_cast<std::uint64_t>(i));
      }
    });
  }
  // Drop/write accounting must be readable while recorders are live.
  std::atomic<bool> done{false};
  pool.emplace_back([&done] {
    while (!done.load(std::memory_order_acquire)) {
      const obs::TraceStats s = obs::trace_stats();
      EXPECT_EQ(s.written, s.retained + s.dropped);
    }
  });
  for (int t = 0; t < kThreads; ++t) pool[static_cast<std::size_t>(t)].join();
  done.store(true, std::memory_order_release);
  pool.back().join();

  const obs::TraceStats s = obs::trace_stats();
  // Every thread wrote exactly 3 events per iteration (span B/E + instant);
  // emitting threads beyond these workers (none here) would break equality.
  EXPECT_GE(s.threads, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(s.written, static_cast<std::uint64_t>(kThreads) * kIters * 3);
  EXPECT_EQ(s.written, s.retained + s.dropped);
  EXPECT_GT(s.dropped, 0u) << "rings were sized to wrap; drop path untested";

  // Export after quiesce parses as a trace (schema checked in obs tests).
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  obs::trace_disable();
  obs::trace_reset();
}

// --- logger rate limiter ----------------------------------------------------

// One shared call site for every thread: the macro's static LogSite is the
// contended state (PR 5 code that had never run under TSan).
void log_from_shared_site(int i) {
  VEDR_LOG_DEBUG("stress", "worker line %d", i);
}

TEST(TsanStress, LoggerConcurrentRateLimiting) {
  // Debug threshold so log_write runs its full path: window bookkeeping,
  // suppression counting, and the fprintf tail for the first ~32 lines.
  obs::set_log_threshold(obs::LogLevel::kDebug);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < 5000; ++i) log_from_shared_site(i);
    });
  }
  // Concurrent threshold flips race against the level check by design (it is
  // an atomic); flip it mid-flight to cover both branches.
  obs::set_log_threshold(obs::LogLevel::kWarn);
  for (auto& th : pool) th.join();
  obs::set_log_threshold(obs::LogLevel::kInfo);
}

// --- check failure hooks ----------------------------------------------------

TEST(TsanStress, CheckFailuresAcrossThreads) {
  common::ScopedThrowOnCheckFailure throw_scope;  // installed before spawn
  std::atomic<int> caught{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&caught, t] {
      for (int i = 0; i < 200; ++i) {
        try {
          VEDR_CHECK(t < 0, "stress failure on thread ", t);
        } catch (const common::CheckFailure&) {
          caught.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(caught.load(), kThreads * 200);
}

// --- windowed metrics -------------------------------------------------------

TEST(TsanStress, WindowedMetricsWritersScrapersRoller) {
  // 1ms intervals on a small ring so real wall time rolls slots constantly:
  // writers, a scraper, and a roller all hit the same rings at once — the
  // serve daemon's scrape-while-recording shape (DESIGN.md §15).
  constexpr std::uint64_t kMs = 1'000'000ULL;
  obs::WindowedHistogram hist(kMs, 16);
  obs::WindowedRate rate(kMs, 16);
  obs::WindowedMax peak(kMs, 16);
  constexpr int kOps = 5000;

  std::vector<std::thread> pool;
  pool.reserve(kThreads + 2);
  std::atomic<bool> done{false};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&hist, &rate, &peak, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t now = obs::wall_now_ns();
        hist.record(i % 1024, now);
        rate.add(1, now);
        peak.record(static_cast<std::int64_t>(t * kOps + i), now);
      }
    });
  }
  // The scraper: window merges and rate math while writers are live. Results
  // are inherently racy snapshots; the invariant is internal consistency.
  pool.emplace_back([&hist, &rate, &peak, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = obs::wall_now_ns();
      const obs::Histogram w = hist.window(10 * kMs, now);
      EXPECT_GE(w.value_at_quantile(0.99), w.value_at_quantile(0.5));
      (void)rate.rate_per_sec(10 * kMs, now);
      EXPECT_GE(peak.window_max(16 * kMs, now), 0);
    }
  });
  // The "roller": retained-sample accounting alongside eviction-by-write —
  // never more samples alive in the ring than were ever recorded.
  pool.emplace_back([&hist, &done] {
    while (!done.load(std::memory_order_acquire))
      EXPECT_LE(hist.retained_count(), static_cast<std::uint64_t>(kThreads) * kOps);
  });
  for (int t = 0; t < kThreads; ++t) pool[static_cast<std::size_t>(t)].join();
  done.store(true, std::memory_order_release);
  pool[kThreads].join();
  pool[kThreads + 1].join();

  // Lossless over the whole run: a wide window (ring depth) after quiesce
  // holds at most everything, and a count query right now can only have lost
  // samples to eviction, never duplicated them.
  const std::uint64_t now = obs::wall_now_ns();
  EXPECT_LE(hist.window(16 * kMs, now).count(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_LE(rate.sum_in_window(16 * kMs, now),
            static_cast<std::uint64_t>(kThreads) * kOps);
}

// --- eval suite work queue --------------------------------------------------

TEST(TsanStress, SuiteWorkQueueUnderContention) {
  eval::RunConfig cfg;
  eval::ScenarioParams params;
  params.scale = 1.0 / 256.0;

  // More workers than cases forces claim contention on the fetch_add and
  // leaves some workers exiting without work — the empty-claim path.
  const auto seq = eval::run_scenario_suite(eval::ScenarioType::kFlowContention, 6,
                                            eval::SystemKind::kVedrfolnir, cfg, params,
                                            /*threads=*/1);
  const auto par = eval::run_scenario_suite(eval::ScenarioType::kFlowContention, 6,
                                            eval::SystemKind::kVedrfolnir, cfg, params,
                                            /*threads=*/kThreads);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].case_id, par[i].case_id);
    EXPECT_EQ(seq[i].sim_events, par[i].sim_events);
    EXPECT_EQ(seq[i].packets_delivered, par[i].packets_delivered);
    EXPECT_STREQ(seq[i].outcome.label(), par[i].outcome.label());
  }
}

}  // namespace
}  // namespace vedr
