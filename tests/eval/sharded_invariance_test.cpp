// Shard-count invariance for the parallel engine lane (DESIGN.md §14).
//
// The domain decomposition is a function of the topology, never of the
// worker count, so the parallel lane's digest must be bit-identical for
// every --shards N >= 2 — N only picks how many threads execute the fixed
// domains. --shards 1 is the serial lane: a one-domain run of the same
// engine, whose digest formula and values are pinned separately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "core/json_export.h"
#include "core/vedrfolnir.h"
#include "eval/experiment.h"
#include "net/network.h"
#include "net/routing.h"
#include "replay/collector.h"
#include "replay/trace_reader.h"
#include "sim/sharded_engine.h"

namespace vedr::eval {
namespace {

ScenarioParams tiny_params() {
  ScenarioParams p;
  p.scale = 1.0 / 256.0;
  return p;
}

ScenarioSpec tiny_spec(ScenarioType type) {
  RunConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  return make_scenario(type, /*case_id=*/0, topo, routing, tiny_params());
}

std::uint64_t digest_with_shards(const ScenarioSpec& spec, int shards,
                                 SystemKind system = SystemKind::kVedrfolnir) {
  RunConfig cfg;
  cfg.shards = shards;
  return run_case_digest(spec, system, cfg);
}

const char* test_name(ScenarioType type) {
  switch (type) {
    case ScenarioType::kFlowContention: return "Contention";
    case ScenarioType::kIncast: return "Incast";
    case ScenarioType::kPfcStorm: return "Storm";
    case ScenarioType::kPfcBackpressure: return "Backpressure";
  }
  return "Unknown";
}

class ShardedInvariance : public ::testing::TestWithParam<ScenarioType> {};

TEST_P(ShardedInvariance, ParallelDigestIdenticalForAnyShardCount) {
  const ScenarioSpec spec = tiny_spec(GetParam());
  // 2, 4, and 8 workers over the same 5 domains (k=4: four pods + core);
  // 8 exercises the worker-clamp path as well.
  const std::uint64_t d2 = digest_with_shards(spec, 2);
  const std::uint64_t d4 = digest_with_shards(spec, 4);
  const std::uint64_t d8 = digest_with_shards(spec, 8);
  EXPECT_NE(d2, 0u);
  EXPECT_EQ(d2, d4) << "parallel digest depends on the worker count";
  EXPECT_EQ(d2, d8) << "parallel digest depends on the worker count";
}

TEST_P(ShardedInvariance, ParallelDigestReproducible) {
  const ScenarioSpec spec = tiny_spec(GetParam());
  EXPECT_EQ(digest_with_shards(spec, 2), digest_with_shards(spec, 2))
      << "same-seed sharded runs diverged: the window protocol leaked "
         "scheduling order into the simulation";
}

TEST_P(ShardedInvariance, ShardsOneStaysOnTheSerialLane) {
  const ScenarioSpec spec = tiny_spec(GetParam());
  RunConfig serial;  // default: shards == 1
  const std::uint64_t pinned = run_case_digest(spec, SystemKind::kVedrfolnir, serial);
  EXPECT_EQ(digest_with_shards(spec, 1), pinned);
}

TEST_P(ShardedInvariance, ShardedRunMatchesSerialOutcome) {
  // The engines schedule the same physics, but same-tick ties at domain
  // boundaries legitimately resolve differently (that is exactly why the
  // parallel lane carries its own digest), so the lanes agree on verdicts
  // and agree tightly — not bit-exactly — on timing and packet counts.
  const ScenarioSpec spec = tiny_spec(GetParam());
  RunConfig serial;
  const CaseResult s = run_case(spec, SystemKind::kVedrfolnir, serial);
  RunConfig sharded;
  sharded.shards = 4;
  const CaseResult p = run_case(spec, SystemKind::kVedrfolnir, sharded);
  EXPECT_EQ(p.cc_completed, s.cc_completed);
  EXPECT_STREQ(p.outcome.label(), s.outcome.label());
  const auto near = [](std::int64_t a, std::int64_t b, double tol) {
    const double denom = std::max<double>(1.0, static_cast<double>(b));
    return std::abs(static_cast<double>(a - b)) / denom < tol;
  };
  EXPECT_TRUE(near(static_cast<std::int64_t>(p.packets_delivered),
                   static_cast<std::int64_t>(s.packets_delivered), 0.02))
      << p.packets_delivered << " vs " << s.packets_delivered;
  // PFC scenarios amplify tie divergence (a pause landing one event earlier
  // shifts whole stall intervals), so completion time gets a wider band.
  EXPECT_TRUE(near(p.cc_time, s.cc_time, 0.15)) << p.cc_time << " vs " << s.cc_time;
}

/// A Vedrfolnir run on the pod-domain plan, assembled as run_case assembles
/// it, so a test can stop the engine part-way and diagnose.
struct PodDomainRun {
  explicit PodDomainRun(const ScenarioSpec& spec)
      : topo(net::make_fat_tree(4, net::NetConfig{})),
        shard_plan(net::ShardPlan::for_topology(topo)),
        engine(shard_plan.num_domains, shard_plan.lookahead, /*num_workers=*/2),
        network(engine, shard_plan, topo, net::NetConfig{}),
        runner(network, collective::CollectivePlan::ring(0, collective::OpType::kAllGather,
                                                         spec.participants, spec.cc_step_bytes)),
        vedr(network, runner) {
    for (const auto& f : spec.bg_flows) anomaly::inject_flow(network, f);
    for (const auto& s : spec.storms) anomaly::inject_storm(network, s);
    runner.start(0);
  }

  net::Topology topo;
  net::ShardPlan shard_plan;
  sim::ShardedEngine engine;
  net::Network network;
  collective::CollectiveRunner runner;
  core::Vedrfolnir vedr;
};

TEST_P(ShardedInvariance, RepeatedDiagnoseSeesRecordsStagedAfterTheFirst) {
  // Both runs stop at the same mid-collective tick, so their physics are
  // identical; only one of them diagnoses there. The records staged after
  // that first diagnose() must still reach the analyzer.
  const ScenarioSpec spec = tiny_spec(GetParam());
  RunConfig cfg;
  cfg.shards = 2;
  const CaseResult full = run_case(spec, SystemKind::kVedrfolnir, cfg);
  ASSERT_TRUE(full.cc_completed);
  const sim::Tick midway = full.cc_time / 2;

  PodDomainRun once(spec);
  once.engine.run(midway);
  once.engine.run(spec.horizon * 4);

  PodDomainRun twice(spec);
  twice.engine.run(midway);
  (void)twice.vedr.diagnose();
  twice.engine.run(spec.horizon * 4);

  EXPECT_EQ(core::json::diagnosis_to_json(twice.vedr.diagnose()),
            core::json::diagnosis_to_json(once.vedr.diagnose()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST_P(ShardedInvariance, ShardedRecordingIsShardCountInvariantAndReplays) {
  const ScenarioSpec spec = tiny_spec(GetParam());
  const std::string base = ::testing::TempDir() + "/sharded_" + test_name(GetParam());
  std::string error;
  RunConfig two;
  two.shards = 2;
  record_case(spec, SystemKind::kVedrfolnir, two, base + "_2.vtrc", &error);
  ASSERT_TRUE(error.empty()) << error;
  RunConfig four;
  four.shards = 4;
  record_case(spec, SystemKind::kVedrfolnir, four, base + "_4.vtrc", &error);
  ASSERT_TRUE(error.empty()) << error;
  const std::string bytes = read_file(base + "_2.vtrc");
  EXPECT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == read_file(base + "_4.vtrc")) << "sharded trace depends on the worker count";

  replay::TraceReader reader(base + "_2.vtrc");
  replay::StreamingCollector collector;
  const replay::ReplayResult replayed = collector.replay(reader);
  EXPECT_TRUE(replayed.ok) << replayed.error.str();
  EXPECT_TRUE(replayed.digest_matches);
  const CaseResult plain = run_case(spec, SystemKind::kVedrfolnir, two);
  EXPECT_EQ(replayed.diagnosis_json, core::json::diagnosis_to_json(plain.diagnosis));
  std::remove((base + "_2.vtrc").c_str());
  std::remove((base + "_4.vtrc").c_str());
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ShardedInvariance,
                         ::testing::Values(ScenarioType::kFlowContention, ScenarioType::kIncast,
                                           ScenarioType::kPfcStorm,
                                           ScenarioType::kPfcBackpressure),
                         [](const ::testing::TestParamInfo<ScenarioType>& info) {
                           return test_name(info.param);
                         });

// Both digest lanes, pinned. The checks above compare runs of the same
// build against each other, so a change that alters event order in every
// run alike passes them; these literals fail it. Values are identical in
// Release and default builds (GCC). Regenerate only for an intended
// behavior change, together with the replay corpus (VEDR_UPDATE_CORPUS=1).
struct PinnedDigests {
  ScenarioType type;
  std::uint64_t serial;    ///< shards 1: the one-domain lane
  std::uint64_t parallel;  ///< shards 2: the pod-domain lane
};

// gtest names each case after its printed parameter; with no printer that is
// the struct's raw bytes, whose padding differs from run to run.
void PrintTo(const PinnedDigests& pin, std::ostream* os) { *os << test_name(pin.type); }

class PinnedDigest : public ::testing::TestWithParam<PinnedDigests> {};

TEST_P(PinnedDigest, DigestsMatchThePinnedValues) {
  const PinnedDigests& pin = GetParam();
  const ScenarioSpec spec = tiny_spec(pin.type);
  const std::uint64_t serial = digest_with_shards(spec, 1);
  const std::uint64_t parallel = digest_with_shards(spec, 2);
  EXPECT_EQ(serial, pin.serial) << "serial lane drifted: 0x" << std::hex << serial;
  EXPECT_EQ(parallel, pin.parallel) << "parallel lane drifted: 0x" << std::hex << parallel;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, PinnedDigest,
    ::testing::Values(
        PinnedDigests{ScenarioType::kFlowContention, 0x903ff42805878c91, 0x59dc959822575733},
        PinnedDigests{ScenarioType::kIncast, 0xc04bb52a6f98319c, 0x3936d6721f930bd7},
        PinnedDigests{ScenarioType::kPfcStorm, 0xcde3e513f41d4cdf, 0x5f77afabc8a4fb66},
        PinnedDigests{ScenarioType::kPfcBackpressure, 0xd036b03ee47fcc30, 0xef5456e9a393ce61}),
    [](const ::testing::TestParamInfo<PinnedDigests>& info) {
      return test_name(info.param.type);
    });

// On 7 µs links every packet delivery lands past the event queue's wheel
// span, so the run's deliveries all ride the overflow heap: this pin covers
// that path of the engine as the ones above cover the wheel's.
TEST(PinnedLongLinkDigest, OverflowHeapDeliveriesMatchThePinnedValue) {
  RunConfig cfg;
  cfg.netcfg.link_delay = 7 * sim::kMicrosecond;
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const ScenarioSpec spec =
      make_scenario(ScenarioType::kFlowContention, /*case_id=*/0, topo, routing, tiny_params());
  const std::uint64_t digest = run_case_digest(spec, SystemKind::kVedrfolnir, cfg);
  EXPECT_EQ(digest, 0x6d7c51e2f29573a0u) << "long-link lane drifted: 0x" << std::hex << digest;
  const CaseResult r = run_case(spec, SystemKind::kVedrfolnir, cfg);
  const std::uint64_t deliveries = r.pops_by_kind[sim::index_of(sim::EventKind::kPacketDelivery)];
  EXPECT_GT(deliveries, 0u);
  EXPECT_GE(r.heap_pushes, deliveries);
}

// The baselines' two lanes, pinned the same way (case 0 at 1/256, k = 4).
// They share Vedrfolnir's ingest wiring, so they run at any shard count.
struct PinnedBaselineDigests {
  SystemKind system;
  ScenarioType type;
  std::uint64_t serial;    ///< shards 1
  std::uint64_t parallel;  ///< shards 2
};

std::string baseline_name(const PinnedBaselineDigests& pin) {
  switch (pin.system) {
    case SystemKind::kHawkeyeMaxR: return std::string("HawkeyeMax") + test_name(pin.type);
    case SystemKind::kHawkeyeMinR: return std::string("HawkeyeMin") + test_name(pin.type);
    case SystemKind::kFullPolling: return std::string("Full") + test_name(pin.type);
    case SystemKind::kVedrfolnir: break;
  }
  return "Unknown";
}

void PrintTo(const PinnedBaselineDigests& pin, std::ostream* os) { *os << baseline_name(pin); }

const auto kBaselinePins = ::testing::Values(
    PinnedBaselineDigests{SystemKind::kHawkeyeMaxR, ScenarioType::kFlowContention,
                          0xbf08681a78eb4407, 0x84b25235d3d6a8e0},
    PinnedBaselineDigests{SystemKind::kHawkeyeMaxR, ScenarioType::kIncast, 0xa92c90731d2aa4a5,
                          0xeccee745f1603aa7},
    PinnedBaselineDigests{SystemKind::kHawkeyeMaxR, ScenarioType::kPfcStorm, 0xe5c010517c4d7e1b,
                          0x327bc34494dcef7c},
    PinnedBaselineDigests{SystemKind::kHawkeyeMaxR, ScenarioType::kPfcBackpressure,
                          0x402adc6cb3570420, 0x4ce200d27348f1ba},
    PinnedBaselineDigests{SystemKind::kHawkeyeMinR, ScenarioType::kFlowContention,
                          0x5960bf47feb62043, 0x8daac64868c4f220},
    PinnedBaselineDigests{SystemKind::kHawkeyeMinR, ScenarioType::kIncast, 0xd46b641045043cec,
                          0xdf3498ed76ca594d},
    PinnedBaselineDigests{SystemKind::kHawkeyeMinR, ScenarioType::kPfcStorm, 0xf10702cabd1a5c37,
                          0x79ec68813568921c},
    PinnedBaselineDigests{SystemKind::kHawkeyeMinR, ScenarioType::kPfcBackpressure,
                          0x3318fa03cc1cc1fe, 0x8776a1f6b059814b},
    PinnedBaselineDigests{SystemKind::kFullPolling, ScenarioType::kFlowContention,
                          0x2ca53c9929796721, 0x3afa9623b1fde0e0},
    PinnedBaselineDigests{SystemKind::kFullPolling, ScenarioType::kIncast, 0x83f011de5ae2cdb0,
                          0x0fe7d0c59390ccb8},
    PinnedBaselineDigests{SystemKind::kFullPolling, ScenarioType::kPfcStorm, 0x849bc6c69567762d,
                          0x4b603c3fa3712630},
    PinnedBaselineDigests{SystemKind::kFullPolling, ScenarioType::kPfcBackpressure,
                          0x5eff44128012c092, 0x1046a7ad1ec8a7d1});

std::string baseline_param_name(const ::testing::TestParamInfo<PinnedBaselineDigests>& info) {
  return baseline_name(info.param);
}

class PinnedBaselineDigest : public ::testing::TestWithParam<PinnedBaselineDigests> {};

TEST_P(PinnedBaselineDigest, SerialDigestMatchesThePinnedValue) {
  const PinnedBaselineDigests& pin = GetParam();
  const std::uint64_t serial = digest_with_shards(tiny_spec(pin.type), 1, pin.system);
  EXPECT_EQ(serial, pin.serial) << "serial lane drifted: 0x" << std::hex << serial;
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, PinnedBaselineDigest, kBaselinePins, baseline_param_name);

class ShardedBaseline : public ::testing::TestWithParam<PinnedBaselineDigests> {};

TEST_P(ShardedBaseline, ParallelDigestIsShardCountInvariantAndPinned) {
  const PinnedBaselineDigests& pin = GetParam();
  const ScenarioSpec spec = tiny_spec(pin.type);
  const std::uint64_t d2 = digest_with_shards(spec, 2, pin.system);
  EXPECT_EQ(d2, digest_with_shards(spec, 4, pin.system))
      << "parallel digest depends on the worker count";
  EXPECT_EQ(d2, pin.parallel) << "parallel lane drifted: 0x" << std::hex << d2;
}

TEST_P(ShardedBaseline, RecordingIsShardCountInvariantAndReplays) {
  const PinnedBaselineDigests& pin = GetParam();
  const ScenarioSpec spec = tiny_spec(pin.type);
  const std::string base = ::testing::TempDir() + "/sharded_" + baseline_name(pin);
  std::string error;
  RunConfig two;
  two.shards = 2;
  const CaseResult recorded = record_case(spec, pin.system, two, base + "_2.vtrc", &error);
  ASSERT_TRUE(error.empty()) << error;
  RunConfig four;
  four.shards = 4;
  record_case(spec, pin.system, four, base + "_4.vtrc", &error);
  ASSERT_TRUE(error.empty()) << error;
  const std::string bytes = read_file(base + "_2.vtrc");
  EXPECT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == read_file(base + "_4.vtrc")) << "sharded trace depends on the worker count";

  replay::TraceReader reader(base + "_2.vtrc");
  replay::StreamingCollector collector;
  const replay::ReplayResult replayed = collector.replay(reader);
  EXPECT_TRUE(replayed.ok) << replayed.error.str();
  EXPECT_TRUE(replayed.digest_matches);
  EXPECT_EQ(replayed.diagnosis_json, core::json::diagnosis_to_json(recorded.diagnosis));
  std::remove((base + "_2.vtrc").c_str());
  std::remove((base + "_4.vtrc").c_str());
}

TEST_P(ShardedBaseline, VerdictMatchesSerial) {
  const PinnedBaselineDigests& pin = GetParam();
  const ScenarioSpec spec = tiny_spec(pin.type);
  const CaseResult serial = run_case(spec, pin.system, RunConfig{});
  RunConfig sharded;
  sharded.shards = 4;
  const CaseResult parallel = run_case(spec, pin.system, sharded);
  EXPECT_EQ(parallel.cc_completed, serial.cc_completed);
  EXPECT_STREQ(parallel.outcome.label(), serial.outcome.label());
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, ShardedBaseline, kBaselinePins, baseline_param_name);

}  // namespace
}  // namespace vedr::eval
