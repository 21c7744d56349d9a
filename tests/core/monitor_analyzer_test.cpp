// Monitor behaviour (step-aware thresholds, budgeted triggers, notification
// transfer) and analyzer aggregation, on a live simulated fabric.
#include <gtest/gtest.h>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "net/host.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

namespace vedr::core {
namespace {

struct Fixture {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::Topology topo;
  net::Network net;
  std::vector<net::NodeId> participants;

  explicit Fixture(int n = 4)
      : topo(net::make_fat_tree(4, net::NetConfig{})),
        net(engine, net::ShardPlan::single(topo), topo, net::NetConfig{}) {
    const auto hosts = topo.hosts();
    participants.assign(hosts.begin(), hosts.begin() + n);
  }

  collective::CollectivePlan plan(std::int64_t bytes = 512 * 1024) {
    return collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                            bytes);
  }
};

TEST(Monitor, NoPollsOnHealthyFabric) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan());
  Vedrfolnir vedr(f.net, runner);
  runner.start(0);
  f.sim.run();
  ASSERT_TRUE(runner.done());
  // An idle fat-tree may still see mild ECMP self-collisions; polls should
  // be rare-to-zero, far below budget (3/step * 4 flows * 3 steps = 36).
  EXPECT_LE(vedr.total_polls(), 6);
}

TEST(Monitor, PollsTriggeredUnderContention) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan(2 * 1024 * 1024));
  Vedrfolnir vedr(f.net, runner);
  const net::FlowKey bg = anomaly::background_key(0, f.topo.hosts()[12], f.participants[1]);
  anomaly::inject_flow(f.net, {bg, 8 * 1024 * 1024, 0});
  runner.start(0);
  f.sim.run();
  ASSERT_TRUE(runner.done());
  EXPECT_GT(vedr.total_polls(), 0);
  // Budget cap: at most detections_per_step * total transfers (with
  // transfers only moving, never minting, budget).
  const int max_polls = 3 * runner.plan().total_transfers();
  EXPECT_LE(vedr.total_polls(), max_polls);
}

TEST(Monitor, NotificationsTransferBudget) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan(2 * 1024 * 1024));
  Vedrfolnir vedr(f.net, runner);
  const net::FlowKey bg = anomaly::background_key(0, f.topo.hosts()[12], f.participants[1]);
  anomaly::inject_flow(f.net, {bg, 8 * 1024 * 1024, 0});
  runner.start(0);
  f.sim.run();
  ASSERT_TRUE(runner.done());
  // Every completed step with leftover budget notifies its waiter.
  EXPECT_GT(vedr.total_notifications(), 0);
  int received = 0;
  for (net::NodeId h : f.participants) received += vedr.monitor_of(h).budget_received();
  EXPECT_GT(received, 0);
  EXPECT_GT(f.net.stats().counter("overhead.notify_bytes"), 0);
}

TEST(Monitor, AdaptiveTransferDisabledSendsNothing) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan(1024 * 1024));
  VedrfolnirConfig cfg;
  cfg.detection.adaptive_transfer = false;
  Vedrfolnir vedr(f.net, runner, cfg);
  runner.start(0);
  f.sim.run();
  EXPECT_EQ(vedr.total_notifications(), 0);
  EXPECT_EQ(f.net.stats().counter("overhead.notify_bytes"), 0);
}

TEST(Monitor, FixedThresholdOverrideRespected) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan(1024 * 1024));
  VedrfolnirConfig cfg;
  cfg.detection.fixed_rtt_threshold = 1;  // 1 ns: every ACK exceeds it
  Vedrfolnir vedr(f.net, runner, cfg);
  runner.start(0);
  f.sim.run();
  // Threshold of 1ns fires on every sample until budget exhausts: exactly
  // budget-many polls per step pair (minus transfer noise), definitely > 0.
  EXPECT_GT(vedr.total_polls(), 0);
}

TEST(Analyzer, StepRecordsArriveFromMonitors) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan());
  Vedrfolnir vedr(f.net, runner);
  runner.start(0);
  f.sim.run();
  EXPECT_EQ(vedr.analyzer().step_records(),
            static_cast<std::size_t>(runner.plan().total_transfers()));
}

TEST(Analyzer, DiagnosisHasCriticalPathAndTime) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan());
  Vedrfolnir vedr(f.net, runner);
  runner.start(0);
  f.sim.run();
  const Diagnosis d = vedr.diagnose();
  EXPECT_FALSE(d.critical_path.empty());
  EXPECT_GT(d.collective_time, 0);
  EXPECT_EQ(d.critical_flow_per_step.size(), 3u);
}

TEST(Analyzer, ReportsGroupedByStepViaPollRegistry) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan(2 * 1024 * 1024));
  Vedrfolnir vedr(f.net, runner);
  const net::FlowKey bg = anomaly::background_key(0, f.topo.hosts()[12], f.participants[1]);
  anomaly::inject_flow(f.net, {bg, 16 * 1024 * 1024, 0});
  runner.start(0);
  f.sim.run();
  ASSERT_GT(vedr.total_polls(), 0);
  vedr.diagnose();
  EXPECT_GT(vedr.analyzer().step_graph_count(), 0u);
  for (const int step : vedr.analyzer().step_graph_steps()) {
    EXPECT_GE(step, 0);
    EXPECT_LT(step, 3);
    EXPECT_NE(vedr.analyzer().step_graph(step), nullptr);
  }
}

TEST(Analyzer, ContributionsRankContendersUnderContention) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan(2 * 1024 * 1024));
  Vedrfolnir vedr(f.net, runner);
  const net::FlowKey big = anomaly::background_key(0, f.topo.hosts()[12], f.participants[1]);
  anomaly::inject_flow(f.net, {big, 24 * 1024 * 1024, 0});
  runner.start(0);
  f.sim.run();
  ASSERT_TRUE(runner.done());
  const Diagnosis d = vedr.diagnose();
  ASSERT_TRUE(d.detects_flow(big)) << d.summary();
  // The injected flow should appear among the rated contributors.
  bool rated = false;
  for (const auto& [key, score] : d.contributions) {
    if (key == big) {
      rated = true;
      EXPECT_GT(score, 0.0);
    }
  }
  EXPECT_TRUE(rated) << d.summary();
}

TEST(Analyzer, EmptyDiagnoseIsSafe) {
  net::Topology topo = net::make_fat_tree(4, net::NetConfig{});
  Analyzer analyzer(&topo, nullptr);
  const Diagnosis d = analyzer.diagnose();
  EXPECT_TRUE(d.findings.empty());
  EXPECT_TRUE(d.critical_path.empty());
  EXPECT_EQ(d.collective_time, 0);
  EXPECT_TRUE(d.contributions.empty());
}

TEST(Analyzer, ReportsWithoutRegisteredPollLandInGlobalGraph) {
  net::Topology topo = net::make_fat_tree(4, net::NetConfig{});
  Analyzer analyzer(&topo, nullptr);
  telemetry::SwitchReport report;
  report.switch_id = 20;
  report.poll_id = 0xABC;  // never registered
  analyzer.on_switch_report(report);
  EXPECT_EQ(analyzer.reports_received(), 1u);
  EXPECT_EQ(analyzer.step_graph_count(), 0u);
  EXPECT_EQ(analyzer.global_graph().report_count(), 1u);
}

TEST(Analyzer, EachReportLandsInOneGraphAndTheMergedGraphHoldsAll) {
  net::Topology topo = net::make_fat_tree(4, net::NetConfig{});
  Analyzer analyzer(&topo, nullptr);
  analyzer.register_poll(7, /*flow=*/1, /*step=*/4);
  telemetry::SwitchReport mapped;
  mapped.poll_id = 7;
  mapped.ports.push_back(telemetry::PortReport{});
  mapped.ports.back().port = {16, 0};
  telemetry::SwitchReport unmapped;
  unmapped.poll_id = 8;
  unmapped.ports.push_back(telemetry::PortReport{});
  unmapped.ports.back().port = {17, 1};
  analyzer.on_switch_report(mapped);
  analyzer.on_switch_report(unmapped);

  ASSERT_NE(analyzer.step_graph(4), nullptr);
  EXPECT_EQ(analyzer.step_graph(4)->report_count(), 1u);
  EXPECT_EQ(analyzer.global_graph().report_count(), 1u);
  const ProvenanceGraph merged = analyzer.merged_graph();
  EXPECT_TRUE(merged.finalized());
  EXPECT_EQ(merged.report_count(), 2u);
  EXPECT_EQ(merged.ports(), (std::vector<net::PortRef>{{16, 0}, {17, 1}}));
}

TEST(Analyzer, RegisteredPollGroupsByStep) {
  net::Topology topo = net::make_fat_tree(4, net::NetConfig{});
  Analyzer analyzer(&topo, nullptr);
  analyzer.register_poll(7, /*flow=*/1, /*step=*/4);
  telemetry::SwitchReport report;
  report.poll_id = 7;
  analyzer.on_switch_report(report);
  ASSERT_EQ(analyzer.step_graph_count(), 1u);
  ASSERT_EQ(analyzer.step_graph_steps().size(), 1u);
  EXPECT_EQ(analyzer.step_graph_steps().front(), 4);
  EXPECT_NE(analyzer.step_graph(4), nullptr);
}

TEST(Vedrfolnir, MonitorOfUnknownHostThrows) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan());
  Vedrfolnir vedr(f.net, runner);
  EXPECT_NO_THROW(vedr.monitor_of(f.participants[0]));
  EXPECT_THROW(vedr.monitor_of(15), std::out_of_range);  // not a participant
}

TEST(Analyzer, SummaryIsReadable) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan());
  Vedrfolnir vedr(f.net, runner);
  runner.start(0);
  f.sim.run();
  const std::string s = vedr.diagnose().summary();
  EXPECT_NE(s.find("Diagnosis:"), std::string::npos);
  EXPECT_NE(s.find("critical path"), std::string::npos);
}

}  // namespace
}  // namespace vedr::core
