// Shard-report introspection (DESIGN.md §15): capturing the report is a tap,
// never a participant — the sharded digest is identical with the report on
// or off — and a captured report accounts for every simulated event.
#include "sim/shard_report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "eval/experiment.h"
#include "net/routing.h"

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

TEST(ShardReport, CaptureIsDigestNeutral) {
  const ScenarioSpec spec = tiny_spec(ScenarioType::kFlowContention);
  RunConfig off;
  off.shards = 2;
  RunConfig on = off;
  on.capture_shard_report = true;
  EXPECT_EQ(run_case_digest(spec, SystemKind::kVedrfolnir, off),
            run_case_digest(spec, SystemKind::kVedrfolnir, on))
      << "collecting the shard report perturbed the simulation";
}

TEST(ShardReport, CapturedReportAccountsForTheRun) {
  const ScenarioSpec spec = tiny_spec(ScenarioType::kIncast);
  RunConfig cfg;
  cfg.shards = 2;
  cfg.capture_shard_report = true;
  const CaseResult result = run_case(spec, SystemKind::kVedrfolnir, cfg);

  ASSERT_NE(result.shard_report, nullptr);
  const sim::ShardReport& rep = *result.shard_report;
  EXPECT_GT(rep.windows, 0u);
  EXPECT_TRUE(rep.timing) << "capture must switch on wall-clock timing";
  // Every simulated event belongs to exactly one domain.
  EXPECT_EQ(rep.total_events(), result.sim_events);
  ASSERT_FALSE(rep.workers.empty());
  ASSERT_FALSE(rep.domains.empty());
  for (const auto& w : rep.workers) {
    EXPECT_GE(w.barrier_wait_ratio(), 0.0);
    EXPECT_LE(w.barrier_wait_ratio(), 1.0);
  }
  for (const auto& d : rep.domains)
    EXPECT_EQ(d.events, d.events_per_window.sum())
        << "domain " << d.id << " window histogram disagrees with its total";

  const std::string table = rep.table();
  EXPECT_NE(table.find("shard report"), std::string::npos) << table;
  EXPECT_NE(table.find("worker"), std::string::npos) << table;
  EXPECT_NE(table.find("domain"), std::string::npos) << table;
}

TEST(ShardReport, OneDomainRunIsOneWindow) {
  // The serial lane is a one-domain run of the same engine, so it reports
  // too: one domain, one worker, one window holding every event, no lanes.
  const ScenarioSpec spec = tiny_spec(ScenarioType::kIncast);
  RunConfig cfg;
  cfg.capture_shard_report = true;
  const CaseResult result = run_case(spec, SystemKind::kVedrfolnir, cfg);

  ASSERT_NE(result.shard_report, nullptr);
  const sim::ShardReport& rep = *result.shard_report;
  EXPECT_EQ(rep.windows, 1u);
  ASSERT_EQ(rep.workers.size(), 1u);
  ASSERT_EQ(rep.domains.size(), 1u);
  EXPECT_EQ(rep.domains[0].events, result.sim_events);
  EXPECT_TRUE(rep.lanes.empty());
}

TEST(ShardReport, AbsentUnlessRequested) {
  const ScenarioSpec spec = tiny_spec(ScenarioType::kFlowContention);
  RunConfig cfg;
  cfg.shards = 2;
  const CaseResult result = run_case(spec, SystemKind::kVedrfolnir, cfg);
  EXPECT_EQ(result.shard_report, nullptr);
}

}  // namespace
}  // namespace vedr::eval
