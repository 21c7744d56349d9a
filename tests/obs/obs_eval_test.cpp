// End-to-end observability checks against the real evaluation pipeline:
//  * golden schema check for the Chrome trace JSON produced by one scenario,
//  * StatsRegistry lifetime audit — per-case metric snapshots from
//    run_scenario_suite must match an isolated run of the same case (each
//    case owns a fresh Network/registry, so nothing bleeds across the suite).
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "net/routing.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vedr {
namespace {

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

class ObsEvalTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::trace_disable();
    obs::metrics_disable();
    obs::trace_reset();
  }

  static eval::ScenarioSpec make_spec(eval::ScenarioType type, int case_id) {
    eval::RunConfig cfg;
    const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
    const net::RoutingTable routing = net::RoutingTable::shortest_paths(topo);
    eval::ScenarioParams params;
    params.scale = 0.0039;  // smoke scale: milliseconds per case
    return eval::make_scenario(type, case_id, topo, routing, params);
  }
};

TEST_F(ObsEvalTest, BackpressureCaseProducesWellFormedTraceJson) {
  obs::trace_enable();
  obs::metrics_enable();
  const auto spec = make_spec(eval::ScenarioType::kPfcBackpressure, 0);
  eval::run_case(spec, eval::SystemKind::kVedrfolnir);

  const obs::TraceStats stats = obs::trace_stats();
  ASSERT_GT(stats.written, 0u);
  ASSERT_EQ(stats.dropped, 0u) << "default ring must hold a smoke-scale case";

  const std::string json = obs::chrome_trace_json();

  // Envelope: traceEvents array, ns display unit, drop accounting, and the
  // named wall/sim process tracks.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"wall\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"sim\"}"), std::string::npos);

  // Span taxonomy: every layer of the run shows up at least once.
  EXPECT_NE(json.find("\"name\":\"run_case\""), std::string::npos);   // eval
  EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);       // collective
  EXPECT_NE(json.find("\"name\":\"flow\""), std::string::npos);       // net
  EXPECT_NE(json.find("\"name\":\"diagnose\""), std::string::npos);   // core
  EXPECT_NE(json.find("\"cat\":\"diag\""), std::string::npos);

  // Scoped spans are balanced: the exporter keeps 'B'/'E' on the wall track
  // only, so the global counts must agree when nothing was dropped.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), count_occurrences(json, "\"ph\":\"E\""));
  // Async spans open; flows cut short by the horizon may legitimately never
  // close, so only the begin side is required.
  EXPECT_GT(count_occurrences(json, "\"ph\":\"b\""), 0u);
}

TEST_F(ObsEvalTest, BackpressureCaseRecordsPfcTimeline) {
  obs::trace_enable();
  const auto spec = make_spec(eval::ScenarioType::kPfcBackpressure, 0);
  eval::run_case(spec, eval::SystemKind::kVedrfolnir);
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("\"name\":\"pfc_xoff\""), std::string::npos)
      << "backpressure scenario should pause at least one port";
  EXPECT_NE(json.find("\"name\":\"pfc_pause\""), std::string::npos);
}

TEST_F(ObsEvalTest, SuiteSnapshotsMatchIsolatedRuns) {
  obs::metrics_enable();
  eval::RunConfig cfg;
  cfg.capture_metrics = true;
  eval::ScenarioParams params;
  params.scale = 0.0039;
  const auto results = eval::run_scenario_suite(eval::ScenarioType::kPfcBackpressure, 3,
                                                eval::SystemKind::kVedrfolnir, cfg, params,
                                                /*threads=*/1);
  ASSERT_EQ(results.size(), 3u);

  for (const auto& r : results) {
    ASSERT_NE(r.metrics, nullptr);
    EXPECT_FALSE(r.metrics->empty());
  }

  // Every case must see only its own registry. If state bled across the
  // suite, case 2's counters would accumulate cases 0 and 1 on top.
  for (int case_id = 0; case_id < 3; ++case_id) {
    const auto spec = make_spec(eval::ScenarioType::kPfcBackpressure, case_id);
    const eval::CaseResult isolated = eval::run_case(spec, eval::SystemKind::kVedrfolnir, cfg);
    ASSERT_NE(isolated.metrics, nullptr);
    const obs::MetricsSnapshot& suite_snap = *results[case_id].metrics;
    const obs::MetricsSnapshot& solo_snap = *isolated.metrics;

    // Counters are sim-derived and therefore bit-deterministic.
    EXPECT_EQ(suite_snap.counters, solo_snap.counters) << "case " << case_id;

    // Histogram sample counts are deterministic even for wall-latency series
    // (the number of observations is fixed by the sim; only wall durations
    // vary). Sim-valued histograms must match in full.
    ASSERT_EQ(suite_snap.hists.size(), solo_snap.hists.size());
    for (const auto& [name, hist] : suite_snap.hists) {
      auto it = solo_snap.hists.find(name);
      ASSERT_NE(it, solo_snap.hists.end()) << name;
      EXPECT_EQ(hist.count(), it->second.count()) << name << " case " << case_id;
      if (name == "monitor.rtt_ns" || name == "switch.queue_depth_bytes") {
        EXPECT_EQ(hist.sum(), it->second.sum()) << name << " case " << case_id;
        for (int b = 0; b < obs::Histogram::kNumBuckets; ++b)
          EXPECT_EQ(hist.bucket(b), it->second.bucket(b)) << name << " bucket " << b;
      }
    }
  }
}

TEST_F(ObsEvalTest, MetricsCaptureIsOptInPerRun) {
  const auto spec = make_spec(eval::ScenarioType::kIncast, 0);
  const eval::CaseResult r = eval::run_case(spec, eval::SystemKind::kVedrfolnir);
  EXPECT_EQ(r.metrics, nullptr) << "capture_metrics=false must not allocate a snapshot";
}

}  // namespace
}  // namespace vedr
