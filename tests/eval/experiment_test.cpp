#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "net/routing.h"
#include "net/trace.h"

namespace vedr::eval {
namespace {

RunConfig tiny_config() { return RunConfig{}; }

ScenarioParams tiny_params() {
  ScenarioParams p;
  p.scale = 1.0 / 256.0;
  return p;
}

TEST(Experiment, SystemNames) {
  EXPECT_STREQ(to_string(SystemKind::kVedrfolnir), "Vedrfolnir");
  EXPECT_STREQ(to_string(SystemKind::kHawkeyeMaxR), "Hawkeye-MaxR");
  EXPECT_STREQ(to_string(SystemKind::kHawkeyeMinR), "Hawkeye-MinR");
  EXPECT_STREQ(to_string(SystemKind::kFullPolling), "FullPolling");
}

TEST(Experiment, SuiteSummaryAggregates) {
  std::vector<CaseResult> results(3);
  results[0].outcome.tp = true;
  results[0].telemetry_bytes = 100;
  results[0].bandwidth_bytes = 200;
  results[0].cc_time = 1000 * sim::kMicrosecond;
  results[1].outcome.fp = true;
  results[1].telemetry_bytes = 300;
  results[1].bandwidth_bytes = 400;
  results[1].cc_time = 3000 * sim::kMicrosecond;
  results[2].outcome.fn = true;

  const auto s = SuiteSummary::from(results);
  EXPECT_EQ(s.cases, 3);
  EXPECT_EQ(s.pr.tp, 1);
  EXPECT_EQ(s.pr.fp, 1);
  EXPECT_EQ(s.pr.fn, 1);
  EXPECT_DOUBLE_EQ(s.mean_telemetry_bytes, 400.0 / 3);
  EXPECT_DOUBLE_EQ(s.mean_bandwidth_bytes, 200.0);
  EXPECT_NEAR(s.mean_cc_time_us, 4000.0 / 3, 1e-9);
}

TEST(Experiment, EmptySummary) {
  const auto s = SuiteSummary::from({});
  EXPECT_EQ(s.cases, 0);
  EXPECT_EQ(s.mean_telemetry_bytes, 0.0);
}

TEST(Experiment, RunScenarioSuiteReturnsOrderedResults) {
  const auto results = run_scenario_suite(ScenarioType::kFlowContention, 3,
                                          SystemKind::kVedrfolnir, tiny_config(), tiny_params(),
                                          /*threads=*/1);
  ASSERT_EQ(results.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].case_id, i);
    EXPECT_EQ(results[static_cast<std::size_t>(i)].scenario, ScenarioType::kFlowContention);
    EXPECT_TRUE(results[static_cast<std::size_t>(i)].cc_completed);
  }
}

TEST(Experiment, ThreadedSuiteMatchesSequential) {
  const auto seq = run_scenario_suite(ScenarioType::kIncast, 4, SystemKind::kVedrfolnir,
                                      tiny_config(), tiny_params(), 1);
  const auto par = run_scenario_suite(ScenarioType::kIncast, 4, SystemKind::kVedrfolnir,
                                      tiny_config(), tiny_params(), 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].sim_events, par[i].sim_events);
    EXPECT_EQ(seq[i].telemetry_bytes, par[i].telemetry_bytes);
    EXPECT_STREQ(seq[i].outcome.label(), par[i].outcome.label());
  }
}

TEST(Experiment, OverheadCountersConsistent) {
  const net::Topology topo = net::make_fat_tree(4, tiny_config().netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec =
      make_scenario(ScenarioType::kFlowContention, 0, topo, routing, tiny_params());
  const auto r = run_case(spec, SystemKind::kVedrfolnir, tiny_config());
  // Bandwidth = polls + notifications + reports; reports = telemetry bytes.
  EXPECT_EQ(r.bandwidth_bytes, r.telemetry_bytes + r.poll_bytes + r.notify_bytes);
  EXPECT_GE(r.report_count, 0);
}

TEST(Experiment, FullPollingHasNoPollBytes) {
  const net::Topology topo = net::make_fat_tree(4, tiny_config().netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec = make_scenario(ScenarioType::kIncast, 0, topo, routing, tiny_params());
  const auto r = run_case(spec, SystemKind::kFullPolling, tiny_config());
  EXPECT_EQ(r.poll_bytes, 0);
  EXPECT_EQ(r.notify_bytes, 0);
  EXPECT_GT(r.telemetry_bytes, 0);
}

TEST(Experiment, RunCaseDigestIsReproducible) {
  const net::Topology topo = net::make_fat_tree(4, tiny_config().netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec =
      make_scenario(ScenarioType::kFlowContention, 0, topo, routing, tiny_params());
  const std::uint64_t first = run_case_digest(spec, SystemKind::kVedrfolnir, tiny_config());
  const std::uint64_t second = run_case_digest(spec, SystemKind::kVedrfolnir, tiny_config());
  EXPECT_EQ(first, second)
      << "same-seed runs diverged: hidden nondeterminism in the simulator or diagnosis core";
  EXPECT_NE(first, 0u);
}

TEST(Experiment, RunCaseDigestDistinguishesCases) {
  const net::Topology topo = net::make_fat_tree(4, tiny_config().netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec0 = make_scenario(ScenarioType::kIncast, 0, topo, routing, tiny_params());
  const auto spec1 = make_scenario(ScenarioType::kIncast, 1, topo, routing, tiny_params());
  EXPECT_NE(run_case_digest(spec0, SystemKind::kVedrfolnir, tiny_config()),
            run_case_digest(spec1, SystemKind::kVedrfolnir, tiny_config()));
}

TEST(Experiment, TracerObservationDoesNotChangeOutcome) {
  // Attaching the digest tracer must be observation-only: the traced run's
  // event count and verdict must match an untraced run bit for bit.
  const net::Topology topo = net::make_fat_tree(4, tiny_config().netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec = make_scenario(ScenarioType::kIncast, 0, topo, routing, tiny_params());
  const auto untraced = run_case(spec, SystemKind::kVedrfolnir, tiny_config());

  net::PacketTracer tracer;
  std::size_t seen = 0;
  tracer.set_sink([&seen](const net::TraceEvent&) { ++seen; });
  RunConfig cfg = tiny_config();
  cfg.domain_tracer_factory = [&tracer](int, int) { return &tracer; };
  const auto traced = run_case(spec, SystemKind::kVedrfolnir, cfg);

  EXPECT_GT(seen, 0u);
  EXPECT_EQ(traced.sim_events, untraced.sim_events);
  EXPECT_EQ(traced.cc_time, untraced.cc_time);
  EXPECT_STREQ(traced.outcome.label(), untraced.outcome.label());
}

}  // namespace
}  // namespace vedr::eval
