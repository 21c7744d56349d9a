// Live observability surface of the serve daemon (DESIGN.md §15): the
// TailSampler retain rule, the LiveMetrics gauge schema, and an end-to-end
// Server run asserting windowed gauges, uptime/build_info, tail counters,
// and flight-recorder session events all show up where the scrapers look.
#include "serve/live_metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "replay/trace_reader.h"
#include "serve/server.h"
#include "serve/verdict.h"

namespace vedr::serve {
namespace {

constexpr std::uint64_t kSec = 1'000'000'000ULL;

// --- TailSampler ------------------------------------------------------------

TEST(TailSampler, ColdStartRetainsNothing) {
  TailSampler tail;
  const std::uint64_t now = 5 * kSec;
  // 31 samples: one short of min_count, so even the largest latency seen so
  // far is not retained and the threshold reads 0 (quantile not meaningful).
  for (int i = 0; i < 31; ++i) EXPECT_FALSE(tail.consider(1'000'000, now));
  EXPECT_EQ(tail.threshold_ns(now), 0);
  EXPECT_EQ(tail.considered(), 31u);
  EXPECT_EQ(tail.retained(), 0u);
}

TEST(TailSampler, WarmWindowRetainsOnlyTheTail) {
  TailSampler tail;
  const std::uint64_t now = 5 * kSec;
  // 100 equal samples of 1000ns: every sample lands in the log2 bucket whose
  // upper edge is 1023, so the rolling p99 threshold becomes 1023.
  for (int i = 0; i < 100; ++i) tail.consider(1000, now);
  EXPECT_EQ(tail.threshold_ns(now), 1023);

  EXPECT_TRUE(tail.consider(1'000'000, now)) << "an outlier above p99 is retained";
  EXPECT_FALSE(tail.consider(10, now)) << "a fast step is never retained";
  EXPECT_EQ(tail.considered(), 102u);
  EXPECT_EQ(tail.retained(), 1u);
}

// --- LiveMetrics gauge schema -----------------------------------------------

TEST(LiveMetrics, AppendGaugesEmitsTheFullWindowedSchema) {
  LiveMetrics live;
  const std::uint64_t now = 5 * kSec;
  live.step_diagnose_ns.record(4000, now);
  live.queue_depth.record(3, now);
  live.queue_depth_peak.record(7, now);
  live.records.add(500, now);
  live.verdicts.add(50, now);
  live.record_tenant_records("tenant-a", 500, now);

  obs::MetricsSnapshot snap;
  live.append_gauges(snap, now);
  // 8 fixed series + 1 tenant series, once per window (10s and 60s).
  EXPECT_EQ(snap.gauges.size(), 2u * 9u);

  auto find = [&snap](const std::string& name, const std::string& window) -> double {
    for (const obs::GaugeSeries& g : snap.gauges) {
      const auto w = g.labels.find("window");
      if (g.name == name && w != g.labels.end() && w->second == window) return g.value;
    }
    ADD_FAILURE() << name << "{window=" << window << "} missing";
    return -1.0;
  };
  // 500 records over a 10s window = 50/s (full-window denominator).
  EXPECT_DOUBLE_EQ(find("serve.window.records_per_sec", "10s"), 50.0);
  EXPECT_DOUBLE_EQ(find("serve.window.tenant_records_per_sec", "10s"), 50.0);
  EXPECT_DOUBLE_EQ(find("serve.window.verdicts_per_sec", "60s"), 50.0 / 60.0);
  EXPECT_EQ(find("serve.window.step_diagnose_count", "10s"), 1.0);
  EXPECT_EQ(find("serve.window.queue_depth_peak", "60s"), 7.0);
  // p50/p99 report the log2 bucket upper edge of the recorded sample.
  EXPECT_EQ(find("serve.window.step_diagnose_p99_ns", "10s"), 4095.0);
  EXPECT_EQ(find("serve.window.queue_depth_p50", "10s"), 3.0);
}

// --- end-to-end through a Server --------------------------------------------

class NullSink : public VerdictSink {
 public:
  void on_verdict(const std::string&) override {}
};

TEST(LiveMetrics, ServerExposesWindowedGaugesUptimeBuildInfoAndFlightEvents) {
  NullSink sink;
  ServerConfig cfg;
  cfg.shards = 2;
  cfg.roll_interval_ns = 0;  // drive poll_windows() by hand
  Server server(cfg, &sink);
  obs::flight_reset();  // isolate this run's events

  const std::uint64_t sid = server.open_session("tenant-a");
  replay::TraceReader reader(std::string(VEDR_REPLAY_CORPUS_DIR) + "/contention.vtrc");
  replay::TraceRecord rec;
  std::uint64_t offset = reader.bytes_read();
  while (reader.next(rec) == replay::TraceStatus::kOk) {
    ASSERT_TRUE(server.offer(sid, rec, offset));
    offset = reader.bytes_read();
  }
  server.poll_windows();  // sample queue depth while the session is active
  server.close_session(sid, replay::TraceError{}, reader.bytes_read());
  server.wait_all_finished();
  server.poll_windows();

  const obs::MetricsSnapshot snap = server.metrics_snapshot();
  auto gauge = [&snap](const std::string& name) -> const obs::GaugeSeries* {
    for (const obs::GaugeSeries& g : snap.gauges)
      if (g.name == name) return &g;
    return nullptr;
  };

  // Windowed diagnose latency saw every step (60s window covers the run).
  const obs::GaugeSeries* count = nullptr;
  for (const obs::GaugeSeries& g : snap.gauges)
    if (g.name == "serve.window.step_diagnose_count" &&
        g.labels.at("window") == "60s")
      count = &g;
  ASSERT_NE(count, nullptr);
  EXPECT_GT(count->value, 0.0);

  const obs::GaugeSeries* uptime = gauge("uptime_seconds");
  ASSERT_NE(uptime, nullptr);
  EXPECT_GE(uptime->value, 0.0);
  const obs::GaugeSeries* build = gauge("build_info");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->value, 1.0);
  EXPECT_FALSE(build->labels.at("version").empty());
  EXPECT_FALSE(build->labels.at("compiler").empty());

  // Every diagnose latency was fed to the tail sampler, and the counters
  // mirror onto the snapshot for scrapers.
  EXPECT_GT(server.tail_sampler().considered(), 0u);
  EXPECT_EQ(snap.counters.at("serve.tail_considered"),
            static_cast<std::int64_t>(server.tail_sampler().considered()));

  // Prometheus rendering: windowed series with labels, plus the satellite
  // gauges under their conventional names.
  const std::string prom = server.prometheus();
  EXPECT_NE(prom.find("vedr_uptime_seconds"), std::string::npos);
  EXPECT_NE(prom.find("vedr_build_info{"), std::string::npos);
  EXPECT_NE(prom.find("vedr_serve_window_step_diagnose_p99_ns{"), std::string::npos);
  EXPECT_NE(prom.find("window=\"10s\""), std::string::npos);
  EXPECT_NE(prom.find("tenant=\"tenant-a\""), std::string::npos);

  // The flight recorder captured the session lifecycle.
  const std::string flight = obs::flight_json();
  EXPECT_NE(flight.find("open id="), std::string::npos) << flight;
  EXPECT_NE(flight.find("close id="), std::string::npos) << flight;

  server.shutdown();
  obs::flight_reset();
}

}  // namespace
}  // namespace vedr::serve
