// Proves the waiting-graph and provenance-graph invariant checks fire on
// malformed inputs (mirrors tests/net/invariants_test.cpp for the switch and
// DCQCN layers).
#include <gtest/gtest.h>

#include "common/check.h"
#include "core/provenance_graph.h"
#include "core/waiting_graph.h"
#include "net/topology.h"

namespace vedr::core {
namespace {

using common::CheckFailure;
using common::ScopedThrowOnCheckFailure;
using telemetry::PauseCauseReport;
using telemetry::PortReport;
using telemetry::SwitchReport;
using telemetry::WaitEntry;

collective::StepRecord rec(int flow, int step, Tick start, Tick end) {
  collective::StepRecord r;
  r.flow_index = flow;
  r.step = step;
  r.src = flow;
  r.dst = flow + 1;
  r.bytes = 1000;
  r.start_time = start;
  r.end_time = end;
  r.expected_duration = 10;
  r.key = net::FlowKey{flow, flow + 1, static_cast<std::uint16_t>(9000 + flow),
                       static_cast<std::uint16_t>(1000 + step)};
  return r;
}

TEST(WaitingGraphInvariants, NegativeDurationIsCaught) {
  ScopedThrowOnCheckFailure guard;
  std::vector<collective::StepRecord> records{rec(0, 0, /*start=*/100, /*end=*/50)};
  EXPECT_THROW(WaitingGraph::build(records), CheckFailure);
}

TEST(WaitingGraphInvariants, SelfDependencyIsCaught) {
  ScopedThrowOnCheckFailure guard;
  auto r = rec(0, 1, 0, 100);
  r.dep_flow = 0;
  r.dep_step = 1;  // step depends on itself
  std::vector<collective::StepRecord> records{rec(0, 0, 0, 50), r};
  EXPECT_THROW(WaitingGraph::build(records), CheckFailure);
}

TEST(WaitingGraphInvariants, NegativeIndicesAreCaught) {
  ScopedThrowOnCheckFailure guard;
  auto r = rec(0, 0, 0, 100);
  r.flow_index = -3;
  std::vector<collective::StepRecord> records{r};
  EXPECT_THROW(WaitingGraph::build(records), CheckFailure);
}

TEST(WaitingGraphInvariants, AuditPassesOnWellFormedGraph) {
  std::vector<collective::StepRecord> records{rec(0, 0, 0, 100), rec(1, 0, 0, 120),
                                              rec(0, 1, 100, 200), rec(1, 1, 120, 260)};
  const auto g = WaitingGraph::build(records);
  ScopedThrowOnCheckFailure guard;
  EXPECT_NO_THROW(g.audit());
}

FlowKey fk(int i) { return FlowKey{i, 50, static_cast<std::uint16_t>(i), 1}; }

TEST(ProvenanceInvariants, NegativePauseContributionIsCaught) {
  net::Topology topo = net::make_chain(2, net::NetConfig{});
  ProvenanceGraph g(&topo);
  SwitchReport rep;
  PauseCauseReport cause;
  cause.ingress_port = PortRef{2, 1};
  cause.time = 500;
  cause.contributions.push_back({0, -64});  // negative bytes: crossed wires
  rep.causes.push_back(cause);
  g.add_report(rep);
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(g.finalize(), CheckFailure);
}

TEST(ProvenanceInvariants, SelfWaitIsCaughtByAudit) {
  net::Topology topo = net::make_chain(2, net::NetConfig{});
  ProvenanceGraph g(&topo);
  SwitchReport rep;
  PortReport pr;
  pr.port = PortRef{2, 1};
  pr.poll_time = 1000;
  pr.qdepth_pkts = 4;
  pr.qdepth_bytes = 4 * 4096;
  pr.waits.push_back(WaitEntry{fk(1), fk(1), 8});  // flow waiting on itself
  rep.ports.push_back(pr);
  g.add_report(rep);
  g.finalize();
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(g.audit(/*expect_dag=*/false), CheckFailure);
}

TEST(ProvenanceInvariants, PfcCycleDetectedAndDagAuditFires) {
  // Build a genuine two-switch PAUSE cycle over the inter-switch link:
  // each switch's link port pauses the other and attributes the bytes to
  // that same link port, closing the loop.
  net::Topology topo = net::make_chain(2, net::NetConfig{});
  const net::NodeId sw_a = topo.switches()[0];
  const net::NodeId sw_b = topo.switches()[1];
  net::PortId a_to_b = net::kInvalidPort;
  const int a_ports = static_cast<int>(topo.node(sw_a).ports.size());
  for (net::PortId p = 0; p < a_ports; ++p) {
    if (topo.peer(sw_a, p).node == sw_b) a_to_b = p;
  }
  ASSERT_NE(a_to_b, net::kInvalidPort);
  const PortRef b_side = topo.peer(sw_a, a_to_b);

  ProvenanceGraph g(&topo);
  SwitchReport rep;
  PauseCauseReport from_a;
  from_a.ingress_port = PortRef{sw_a, a_to_b};
  from_a.time = 500;
  from_a.contributions.push_back({a_to_b, 4096});
  rep.causes.push_back(from_a);
  PauseCauseReport from_b;
  from_b.ingress_port = b_side;
  from_b.time = 500;
  from_b.contributions.push_back({b_side.port, 4096});
  rep.causes.push_back(from_b);
  g.add_report(rep);
  g.finalize();

  EXPECT_TRUE(g.pfc_has_cycle());
  ScopedThrowOnCheckFailure guard;
  EXPECT_NO_THROW(g.audit(/*expect_dag=*/false));
  EXPECT_THROW(g.audit(/*expect_dag=*/true), CheckFailure);
}

TEST(ProvenanceInvariants, QueryBeforeFinalizeIsCaught) {
  // Every vertex and edge query reads the rows finalize() builds; the
  // staging counters stay readable at any time.
  net::Topology topo = net::make_chain(2, net::NetConfig{});
  ProvenanceGraph g(&topo);
  SwitchReport rep;
  PortReport pr;
  pr.port = PortRef{2, 1};
  pr.qdepth_pkts = 4;
  pr.waits.push_back(WaitEntry{fk(1), fk(2), 8});
  rep.ports.push_back(pr);
  g.add_report(rep);

  ScopedThrowOnCheckFailure guard;
  EXPECT_EQ(g.report_count(), 1u);
  EXPECT_FALSE(g.empty());
  EXPECT_TRUE(g.drops().empty());
  EXPECT_THROW(g.ports(), CheckFailure);
  EXPECT_THROW(g.waiters_at(pr.port), CheckFailure);
  EXPECT_THROW(g.pair_weight(pr.port, fk(1), fk(2)), CheckFailure);
  EXPECT_THROW(g.contribution_to_flow(fk(2), fk(1)), CheckFailure);
  EXPECT_THROW(g.port_count(), CheckFailure);
  EXPECT_THROW(g.flow_ids(), CheckFailure);
  EXPECT_THROW(g.pfc_edges(), CheckFailure);

  g.finalize();
  EXPECT_EQ(g.pair_weight(pr.port, fk(1), fk(2)), 8.0);
  g.add_report(rep);  // the rows are stale until the next finalize()
  EXPECT_THROW(g.flows(), CheckFailure);
}

TEST(ProvenanceInvariants, LinearPfcChainIsAcyclic) {
  net::Topology topo = net::make_chain(2, net::NetConfig{});
  const net::NodeId sw_a = topo.switches()[0];
  ProvenanceGraph g(&topo);
  SwitchReport rep;
  PauseCauseReport cause;
  cause.ingress_port = PortRef{sw_a, 0};
  cause.time = 500;
  cause.contributions.push_back({1, 4096});
  rep.causes.push_back(cause);
  g.add_report(rep);
  g.finalize();
  EXPECT_FALSE(g.pfc_has_cycle());
  ScopedThrowOnCheckFailure guard;
  EXPECT_NO_THROW(g.audit(/*expect_dag=*/true));
}

}  // namespace
}  // namespace vedr::core
