// Golden-trace corpus: one recorded case per scenario, checked into
// tests/replay/corpus/ alongside the live run's diagnosis JSON. Replaying a
// stored trace must reproduce the stored diagnosis byte-for-byte — this
// pins the analyzer's behavior across refactors — and recording the case
// live must reproduce the stored trace byte-for-byte, which pins the
// simulator (an intended behavior change shows up as a corpus diff,
// regenerated with VEDR_UPDATE_CORPUS=1).
//
//   VEDR_UPDATE_CORPUS=1 ./replay_tests --gtest_filter='Corpus*'
//
// re-records every trace and expectation in the source tree.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "common/digest.h"
#include "common/env.h"
#include "core/json_export.h"
#include "eval/experiment.h"
#include "net/routing.h"
#include "replay/collector.h"
#include "replay/trace_reader.h"

#ifndef VEDR_REPLAY_CORPUS_DIR
#error "VEDR_REPLAY_CORPUS_DIR must be defined by the build"
#endif

namespace vedr {
namespace {

// Must stay fixed: changing either invalidates every stored trace.
constexpr double kCorpusScale = 1.0 / 256.0;
constexpr int kCorpusCase = 0;

// The name is held inline, not as a pointer: gtest names each case after its
// parameter's bytes, and a pointer's bytes change with every build and run.
struct CorpusEntry {
  char name[15];
  eval::ScenarioType type;
};

const CorpusEntry kCorpus[] = {
    {"contention", eval::ScenarioType::kFlowContention},
    {"incast", eval::ScenarioType::kIncast},
    {"storm", eval::ScenarioType::kPfcStorm},
    {"backpressure", eval::ScenarioType::kPfcBackpressure},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

eval::ScenarioSpec corpus_spec(const CorpusEntry& entry, const eval::RunConfig& cfg) {
  eval::ScenarioParams params;
  params.scale = kCorpusScale;
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  return eval::make_scenario(entry.type, kCorpusCase, topo, routing, params);
}

class CorpusTest : public ::testing::TestWithParam<CorpusEntry> {};

TEST_P(CorpusTest, ReplayedDiagnosisMatchesStoredExpectation) {
  const CorpusEntry& entry = GetParam();
  const std::string dir = VEDR_REPLAY_CORPUS_DIR;
  const std::string trace_path = dir + "/" + entry.name + ".vtrc";
  const std::string json_path = dir + "/" + entry.name + ".expected.json";

  if (common::env_str("VEDR_UPDATE_CORPUS")) {
    const eval::RunConfig cfg;
    const auto spec = corpus_spec(entry, cfg);
    std::string error;
    const eval::CaseResult live =
        eval::record_case(spec, eval::SystemKind::kVedrfolnir, cfg, trace_path, &error);
    ASSERT_TRUE(error.empty()) << error;
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << core::json::diagnosis_to_json(live.diagnosis);
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "corpus regenerated: " << trace_path;
  }

  replay::TraceReader reader(trace_path);
  replay::StreamingCollector collector;
  const replay::ReplayResult replayed = collector.replay(reader);
  ASSERT_TRUE(replayed.ok) << trace_path << ": " << replayed.error.str()
                           << " (regenerate with VEDR_UPDATE_CORPUS=1)";

  const std::string expected = read_file(json_path);
  ASSERT_FALSE(expected.empty()) << "missing expectation " << json_path;
  // Byte-identical: the replayed diagnosis must equal the diagnosis the
  // recording run produced, as stored at recording time.
  EXPECT_EQ(replayed.diagnosis_json, expected) << entry.name;
  EXPECT_TRUE(replayed.digest_matches) << entry.name;
  EXPECT_EQ(replayed.diagnosis_digest, replayed.footer.diagnosis_digest);
}

// The live path, pinned: recording the corpus case afresh must reproduce the
// stored trace and expectation byte for byte. Replay alone cannot catch an
// engine change that reorders events — the stored trace would still replay
// cleanly — so this is the check that fails when the simulator drifts.
TEST_P(CorpusTest, LiveRecordingMatchesStoredTrace) {
  const CorpusEntry& entry = GetParam();
  if (common::env_str("VEDR_UPDATE_CORPUS")) GTEST_SKIP() << "regeneration pass";
  const std::string dir = VEDR_REPLAY_CORPUS_DIR;
  // ctest runs every case as its own process, in parallel; a per-process
  // suffix keeps concurrent recordings apart.
  const std::string live_path = ::testing::TempDir() + "/live_" + entry.name + "." +
                                std::to_string(::getpid()) + ".vtrc";

  const eval::RunConfig cfg;
  std::string error;
  const eval::CaseResult live = eval::record_case(corpus_spec(entry, cfg),
                                                  eval::SystemKind::kVedrfolnir, cfg,
                                                  live_path, &error);
  ASSERT_TRUE(error.empty()) << error;
  const std::string live_trace = read_file(live_path);
  std::remove(live_path.c_str());

  const std::string stored_trace = read_file(dir + "/" + entry.name + ".vtrc");
  ASSERT_FALSE(stored_trace.empty()) << "missing stored trace for " << entry.name;
  EXPECT_TRUE(live_trace == stored_trace)
      << entry.name << ": live recording (" << live_trace.size()
      << " bytes) differs from the stored trace (" << stored_trace.size() << " bytes)";
  EXPECT_EQ(core::json::diagnosis_to_json(live.diagnosis),
            read_file(dir + "/" + entry.name + ".expected.json"))
      << entry.name;
}

// `vedr_replay --dot` exports the merged provenance graph of every report,
// finalized, so that it draws the PFC edges. Each trace's DOT is pinned by
// its digest; the pins are the DOT of one graph that ingested every report.
TEST_P(CorpusTest, ProvenanceDotMatchesPinnedDigest) {
  const CorpusEntry& entry = GetParam();
  if (common::env_str("VEDR_UPDATE_CORPUS")) GTEST_SKIP() << "regeneration pass";
  const std::map<std::string, std::uint64_t> pins = {
      {"backpressure", 0x557c793ef482950cULL},
      {"contention", 0xe1333d3d6ea0bf1eULL},
      {"incast", 0x1ae328f814610d8aULL},
      {"storm", 0x3907ed43abdb7e61ULL},
  };
  replay::TraceReader reader(std::string(VEDR_REPLAY_CORPUS_DIR) + "/" + entry.name + ".vtrc");
  replay::StreamingCollector collector;
  ASSERT_TRUE(collector.replay(reader).ok);
  const std::string dot = collector.analyzer()->merged_graph().to_dot(collector.cc_flows());
  EXPECT_NE(dot.find("color=purple"), std::string::npos) << entry.name << " has no PFC edge";
  EXPECT_EQ(common::Digest().mix(dot).value(), pins.at(entry.name)) << entry.name << "\n" << dot;
}

// Sketch-lane agreement over the same golden corpus: replaying each trace
// through the bounded sketch backend must (a) still complete cleanly, (b)
// carry the sketch-lane marker, and (c) rank the same top culprit as the
// exact lane whenever the exact lane implicates anyone. The lanes need not
// agree byte-for-byte — the sketch trades per-flow exactness for memory —
// but the headline verdict must survive the compression.
TEST_P(CorpusTest, SketchLaneAgreesOnTopCulprit) {
  const CorpusEntry& entry = GetParam();
  if (common::env_str("VEDR_UPDATE_CORPUS")) GTEST_SKIP() << "regeneration pass";
  const std::string trace_path =
      std::string(VEDR_REPLAY_CORPUS_DIR) + "/" + entry.name + ".vtrc";

  replay::TraceReader exact_reader(trace_path);
  replay::StreamingCollector exact_collector;
  const replay::ReplayResult exact = exact_collector.replay(exact_reader);
  ASSERT_TRUE(exact.ok) << exact.error.str();
  ASSERT_FALSE(exact.diagnosis.sketch_lane);

  replay::TraceReader sketch_reader(trace_path);
  replay::StreamingCollector sketch_collector;
  net::TelemetryParams params;
  params.backend = net::TelemetryBackend::kSketch;
  sketch_collector.set_telemetry(params);
  const replay::ReplayResult sketch = sketch_collector.replay(sketch_reader);
  ASSERT_TRUE(sketch.ok) << sketch.error.str();
  EXPECT_TRUE(sketch.diagnosis.sketch_lane);
  // The footer digest hashes the exact-lane diagnosis; matching it from the
  // sketch lane would mean the compressor changed nothing.
  EXPECT_FALSE(sketch.digest_matches);

  auto top_culprit = [](const core::Diagnosis& d) {
    net::FlowKey best{};
    double best_score = -1.0;
    for (const auto& [flow, score] : d.contributions) {
      if (score > best_score || (score == best_score && flow < best)) {
        best = flow;
        best_score = score;
      }
    }
    return std::make_pair(best, best_score);
  };
  const auto [exact_top, exact_score] = top_culprit(exact.diagnosis);
  if (exact_score >= 0) {
    const auto [sketch_top, sketch_score] = top_culprit(sketch.diagnosis);
    ASSERT_GE(sketch_score, 0.0) << entry.name << ": sketch lane implicated nobody";
    EXPECT_EQ(sketch_top, exact_top)
        << entry.name << ": sketch lane blamed " << sketch_top.str() << " but exact lane "
        << exact_top.str();
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, CorpusTest, ::testing::ValuesIn(kCorpus),
                         [](const ::testing::TestParamInfo<CorpusEntry>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace vedr
