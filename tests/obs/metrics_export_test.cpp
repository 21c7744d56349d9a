#include "obs/metrics.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "sim/stats.h"

namespace vedr::obs {
namespace {

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

// StatsRegistry is pinned in place (it owns a mutex), so the fixture fills a
// caller-owned instance instead of returning one.
void fill_registry(sim::StatsRegistry& stats) {
  stats.add_counter("overhead.poll_bytes", 1200);
  stats.add_counter("replay.frames", 56);
  stats.observe("diag.latency_ns", 900);     // bucket 10 (512..1023)
  stats.observe("diag.latency_ns", 1000);    // bucket 10
  stats.observe("diag.latency_ns", 70000);   // bucket 17 (65536..131071)
}

MetricsSnapshot filled_snapshot() {
  sim::StatsRegistry stats;
  fill_registry(stats);
  return snapshot(stats);
}

TEST(MetricsSnapshot, CapturesAllThreeKinds) {
  const MetricsSnapshot snap = filled_snapshot();
  EXPECT_FALSE(snap.empty());
  EXPECT_EQ(snap.counters.at("overhead.poll_bytes"), 1200);
  EXPECT_EQ(snap.counters.at("replay.frames"), 56);
  EXPECT_EQ(snap.hists.at("diag.latency_ns").count(), 3u);
}

TEST(MetricsSnapshot, IsIndependentOfTheRegistryAfterwards) {
  sim::StatsRegistry stats;
  fill_registry(stats);
  const MetricsSnapshot snap = snapshot(stats);
  stats.add_counter("replay.frames", 100);
  stats.observe("diag.latency_ns", 5);
  EXPECT_EQ(snap.counters.at("replay.frames"), 56);
  EXPECT_EQ(snap.hists.at("diag.latency_ns").count(), 3u);
}

TEST(PrometheusExport, SanitizesNamesAndTypesSeries) {
  const std::string text = to_prometheus(filled_snapshot());
  EXPECT_NE(text.find("# TYPE vedr_overhead_poll_bytes counter\n"), std::string::npos) << text;
  EXPECT_NE(text.find("vedr_overhead_poll_bytes 1200\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vedr_diag_latency_ns histogram\n"), std::string::npos);
  EXPECT_EQ(text.find('.'), std::string::npos) << "dotted names must not leak: " << text;
}

TEST(PrometheusExport, HistogramBucketsAreCumulativeAndEndAtInf) {
  const std::string text = to_prometheus(filled_snapshot());
  // Two samples land in bucket 10 (le 1023) and one more in bucket 17
  // (le 131071); empty buckets between them are elided but the counts
  // stay cumulative. +Inf always equals the total count.
  EXPECT_NE(text.find("vedr_diag_latency_ns_bucket{le=\"1023\"} 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("vedr_diag_latency_ns_bucket{le=\"131071\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("vedr_diag_latency_ns_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("vedr_diag_latency_ns_sum 71900\n"), std::string::npos);
  EXPECT_NE(text.find("vedr_diag_latency_ns_count 3\n"), std::string::npos);
  EXPECT_EQ(count_occurrences(text, "vedr_diag_latency_ns_bucket"), 3u);
}

TEST(PrometheusExport, LabelsAttachToEverySeries) {
  const std::string text =
      to_prometheus(filled_snapshot(), {{"scenario", "incast"}, {"case_id", "0"}});
  EXPECT_NE(text.find("vedr_replay_frames{case_id=\"0\",scenario=\"incast\"} 56\n"),
            std::string::npos)
      << text;
  // Histogram bucket lines append le after the shared labels.
  EXPECT_NE(
      text.find("vedr_diag_latency_ns_bucket{case_id=\"0\",scenario=\"incast\",le=\"+Inf\"} 3\n"),
      std::string::npos)
      << text;
  // No unlabeled sample lines sneak through (TYPE comments carry no labels).
  EXPECT_EQ(count_occurrences(text, "\nvedr_replay_frames 56"), 0u);
}

TEST(PrometheusExport, EmptySnapshotYieldsEmptyText) {
  EXPECT_EQ(to_prometheus(MetricsSnapshot{}), "");
}

TEST(JsonExport, RendersCountersSummariesAndHistograms) {
  const std::string json = to_json(filled_snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"overhead.poll_bytes\":1200"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hists\""), std::string::npos);
  // Histogram buckets render as [upper_edge, count] pairs.
  EXPECT_NE(json.find("\"buckets\":[[1023,2],[131071,1]]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":1023"), std::string::npos);
}

TEST(JsonExport, EmptySnapshotIsStillAnObject) {
  const std::string json = to_json(MetricsSnapshot{});
  EXPECT_EQ(json, "{\"counters\":{},\"hists\":{},\"gauges\":[]}");
}

TEST(PrometheusExport, LabelValuesAreEscaped) {
  MetricsSnapshot snap;
  snap.counters["serve.records"] = 7;
  const std::string text =
      to_prometheus(snap, {{"tenant", "a\"b\\c\nd"}});
  EXPECT_NE(text.find("vedr_serve_records{tenant=\"a\\\"b\\\\c\\nd\"} 7\n"), std::string::npos)
      << text;
  // Exactly two physical lines (TYPE + sample): the raw newline in the label
  // value must not split the sample line.
  EXPECT_EQ(count_occurrences(text, "\n"), 2u) << text;
}

TEST(PrometheusExport, EscapeLabelValueCoversTheExpositionTriple) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("q\"q"), "q\\\"q");
  EXPECT_EQ(escape_label_value("b\\b"), "b\\\\b");
  EXPECT_EQ(escape_label_value("n\nn"), "n\\nn");
  EXPECT_EQ(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PrometheusExport, GaugeSeriesCarryPerSeriesLabels) {
  MetricsSnapshot snap;
  snap.gauges.push_back({"serve.window.p99_ns", {{"window", "10s"}}, 1023.0});
  snap.gauges.push_back({"serve.window.p99_ns", {{"window", "60s"}}, 2047.0});
  snap.gauges.push_back({"serve.uptime_seconds", {}, 12.5});
  const std::string text = to_prometheus(snap, {{"job", "serve"}});
  // One TYPE line per metric name even with several label variants.
  EXPECT_EQ(count_occurrences(text, "# TYPE vedr_serve_window_p99_ns gauge"), 1u) << text;
  EXPECT_NE(text.find("vedr_serve_window_p99_ns{job=\"serve\",window=\"10s\"} 1023\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("vedr_serve_window_p99_ns{job=\"serve\",window=\"60s\"} 2047\n"),
            std::string::npos);
  EXPECT_NE(text.find("vedr_serve_uptime_seconds{job=\"serve\"} 12.5\n"), std::string::npos);
}

TEST(JsonExport, GaugesRenderAsSeriesArray) {
  MetricsSnapshot snap;
  snap.gauges.push_back({"serve.window.rate", {{"tenant", "t0"}}, 42.0});
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"gauges\":[{\"name\":\"serve.window.rate\","
                      "\"labels\":{\"tenant\":\"t0\"},\"value\":42}]"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace vedr::obs
