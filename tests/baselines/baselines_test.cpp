#include <gtest/gtest.h>

#include "anomaly/injectors.h"
#include "baselines/full_polling.h"
#include "baselines/hawkeye.h"
#include "collective/runner.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "net/host.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/sharded_engine.h"

namespace vedr::baselines {
namespace {

struct Fixture {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::Topology topo;
  net::Network net;
  std::vector<net::NodeId> participants;

  Fixture()
      : topo(net::make_fat_tree(4, net::NetConfig{})),
        net(engine, net::ShardPlan::single(topo), topo, net::NetConfig{}) {
    const auto hosts = topo.hosts();
    participants.assign(hosts.begin(), hosts.begin() + 4);
  }

  collective::CollectivePlan plan(std::int64_t bytes = 1024 * 1024) {
    return collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                            bytes);
  }
};

TEST(Hawkeye, MaxThresholdAtLeastMinThreshold) {
  Fixture f;
  auto plan = f.plan();
  collective::CollectiveRunner runner(f.net, f.plan());
  HawkeyeConfig max_cfg;
  max_cfg.use_max_rtt = true;
  HawkeyeConfig min_cfg;
  min_cfg.use_max_rtt = false;
  // Construct sequentially: each re-wires the listeners, which is fine for
  // threshold inspection.
  Hawkeye hk_max(f.net, plan, max_cfg);
  Hawkeye hk_min(f.net, plan, min_cfg);
  EXPECT_GE(hk_max.threshold(), hk_min.threshold());
  EXPECT_GT(hk_min.threshold(), 0);
}

TEST(Hawkeye, TriggersUnderContentionAndDiagnoses) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan(2 * 1024 * 1024));
  Hawkeye hawkeye(f.net, runner.plan(), {});
  const net::FlowKey bg = anomaly::background_key(0, f.topo.hosts()[12], f.participants[1]);
  anomaly::inject_flow(f.net, {bg, 16 * 1024 * 1024, 0});
  runner.start(0);
  f.sim.run();
  ASSERT_TRUE(runner.done());
  EXPECT_GT(hawkeye.polls_sent(), 0);
  const auto d = hawkeye.diagnose();
  EXPECT_TRUE(d.detects_flow(bg));
  // No collective awareness: no waiting graph, no critical path.
  EXPECT_TRUE(d.critical_path.empty());
}

TEST(Hawkeye, RetentionDropsWithinWindow) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan(2 * 1024 * 1024));
  HawkeyeConfig cfg;
  cfg.use_max_rtt = false;  // MinR triggers aggressively
  Hawkeye hawkeye(f.net, runner.plan(), cfg);
  const net::FlowKey bg = anomaly::background_key(0, f.topo.hosts()[12], f.participants[1]);
  anomaly::inject_flow(f.net, {bg, 16 * 1024 * 1024, 0});
  runner.start(0);
  f.sim.run();
  EXPECT_GT(hawkeye.reports_dropped(), 0u)
      << "MinR's redundant triggering must hit the 50us retention filter";
  EXPECT_GT(hawkeye.reports_kept(), 0u);
}

TEST(Hawkeye, MinRPollsMoreThanMaxR) {
  auto run = [](bool use_max) {
    Fixture f;
    collective::CollectiveRunner runner(f.net, f.plan(2 * 1024 * 1024));
    HawkeyeConfig cfg;
    cfg.use_max_rtt = use_max;
    Hawkeye hawkeye(f.net, runner.plan(), cfg);
    const net::FlowKey bg =
        anomaly::background_key(0, f.topo.hosts()[12], f.participants[1]);
    anomaly::inject_flow(f.net, {bg, 16 * 1024 * 1024, 0});
    runner.start(0);
    f.sim.run();
    return hawkeye.polls_sent();
  };
  EXPECT_GE(run(false), run(true));
}

TEST(FullPolling, SweepsAllSwitchesPeriodically) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan());
  FullPolling fp(f.net, runner.plan());
  fp.start(2 * sim::kMillisecond);
  runner.start(0);
  f.sim.run();
  EXPECT_GE(fp.sweeps(), 10u);
  // 20 switches per sweep.
  EXPECT_EQ(f.net.stats().counter("overhead.report_count"),
            static_cast<std::int64_t>(fp.sweeps()) * 20);
  EXPECT_GT(f.net.stats().counter("overhead.telemetry_bytes"), 0);
}

TEST(FullPolling, StopsAtDeadline) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan());
  FullPolling fp(f.net, runner.plan());
  fp.start(1 * sim::kMillisecond);
  runner.start(0);
  f.sim.run();
  EXPECT_LE(fp.sweeps(), 11u);
}

TEST(FullPolling, DiagnosesContentionWithoutPolls) {
  Fixture f;
  collective::CollectiveRunner runner(f.net, f.plan(2 * 1024 * 1024));
  FullPolling fp(f.net, runner.plan());
  fp.start(60 * sim::kMillisecond);
  const net::FlowKey bg = anomaly::background_key(0, f.topo.hosts()[12], f.participants[1]);
  anomaly::inject_flow(f.net, {bg, 16 * 1024 * 1024, 0});
  runner.start(0);
  f.sim.run();
  ASSERT_TRUE(runner.done());
  EXPECT_TRUE(fp.diagnose().detects_flow(bg));
  EXPECT_EQ(f.net.stats().counter("overhead.poll_bytes"), 0)
      << "full polling pushes reports autonomously, no polling queries";
}

TEST(FullPolling, ReportsCarryTheSketchBackend) {
  // Every report leaves a switch through Switch::emit_report, which stamps
  // the backend, so Full Polling's periodic sweeps mark a sketch-lane
  // diagnosis exactly like Vedrfolnir's poll reports do.
  eval::RunConfig cfg;
  cfg.netcfg.telemetry.backend = net::TelemetryBackend::kSketch;
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  eval::ScenarioParams params;
  params.scale = 1.0 / 256.0;
  const eval::ScenarioSpec spec =
      eval::make_scenario(eval::ScenarioType::kFlowContention, 0, topo,
                          net::RoutingTable::shortest_paths(topo), params);
  const eval::CaseResult sketch = eval::run_case(spec, eval::SystemKind::kFullPolling, cfg);
  EXPECT_GT(sketch.report_count, 0);
  EXPECT_TRUE(sketch.diagnosis.sketch_lane);

  const eval::CaseResult exact = eval::run_case(spec, eval::SystemKind::kFullPolling, {});
  EXPECT_FALSE(exact.diagnosis.sketch_lane);
}

}  // namespace
}  // namespace vedr::baselines
