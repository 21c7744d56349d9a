// Signature classification (§III-D2) over hand-built provenance graphs.
#include "core/signatures.h"

#include <gtest/gtest.h>

#include "net/topology.h"

namespace vedr::core {
namespace {

using telemetry::FlowEntry;
using telemetry::PauseCauseReport;
using telemetry::PortReport;
using telemetry::SwitchReport;
using telemetry::WaitEntry;

FlowKey cc(int i) { return FlowKey{i, 40, static_cast<std::uint16_t>(9000 + i), 1000}; }
FlowKey bg(int i) { return FlowKey{i, 41, static_cast<std::uint16_t>(100 + i), 200}; }

struct Fixture {
  // Chain: h0(0), h1(1), s0(2), s1(3); s0: port0->h0, port1->s1;
  // s1: port0->h1, port1->s0.
  net::Topology topo = net::make_chain(2, net::NetConfig{});
  ProvenanceGraph g{&topo};
  SignatureClassifier classifier;
  std::unordered_set<FlowKey, net::FlowKeyHash> cc_set{cc(0)};

  void add_port(PortRef p, std::vector<WaitEntry> waits, std::vector<FlowKey> flows,
                bool paused = false, std::int64_t qdepth = 10) {
    SwitchReport rep;
    rep.switch_id = p.node;
    PortReport pr;
    pr.port = p;
    pr.poll_time = 1000;
    pr.qdepth_pkts = qdepth;
    pr.currently_paused = paused;
    pr.waits = std::move(waits);
    for (const auto& f : flows) pr.flows.push_back(FlowEntry{f, 10, 40960, 0, 1000});
    rep.ports.push_back(pr);
    g.add_report(rep);
  }

  void add_cause(PortRef ingress, std::vector<std::pair<net::PortId, std::int64_t>> contribs,
                 bool injected = false) {
    SwitchReport rep;
    rep.switch_id = ingress.node;
    PauseCauseReport cause;
    cause.ingress_port = ingress;
    cause.time = 500;
    cause.injected = injected;
    cause.contributions = std::move(contribs);
    rep.causes.push_back(cause);
    g.add_report(rep);
  }

  std::vector<AnomalyFinding> classify() {
    g.finalize();
    return classifier.classify(g, cc_set, 2);
  }
};

TEST(Signatures, FlowContentionDetected) {
  Fixture f;
  f.add_port(PortRef{2, 1}, {WaitEntry{cc(0), bg(1), 50}}, {cc(0), bg(1)});
  const auto findings = f.classify();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, AnomalyType::kFlowContention);
  ASSERT_EQ(findings[0].contending_flows.size(), 1u);
  EXPECT_EQ(findings[0].contending_flows[0], bg(1));
  EXPECT_EQ(findings[0].step, 2);
  EXPECT_EQ(findings[0].root_port, (PortRef{2, 1}));
}

TEST(Signatures, WeakPairWeightIsNoise) {
  Fixture f;
  f.add_port(PortRef{2, 1}, {WaitEntry{cc(0), bg(1), 3}}, {cc(0), bg(1)});
  EXPECT_TRUE(f.classify().empty());
}

TEST(Signatures, CcOnCcContentionNotReported) {
  Fixture f;
  f.cc_set.insert(cc(1));
  f.add_port(PortRef{2, 1}, {WaitEntry{cc(0), cc(1), 80}}, {cc(0), cc(1)});
  EXPECT_TRUE(f.classify().empty()) << "collective flows waiting on each other is not an anomaly";
}

TEST(Signatures, IncastAtHostFacingPort) {
  Fixture f;
  // s1 port 0 faces h1.
  f.add_port(PortRef{3, 0},
             {WaitEntry{cc(0), bg(1), 40}, WaitEntry{cc(0), bg(2), 30}},
             {cc(0), bg(1), bg(2)});
  const auto findings = f.classify();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, AnomalyType::kIncast);
  EXPECT_EQ(findings[0].contending_flows.size(), 2u);
}

TEST(Signatures, BackpressureChainToTerminal) {
  Fixture f;
  // cc stalls at s0's egress (2,1), which is paused; s1 blames its egress
  // (3,0) where bg flows pile up.
  f.add_port(PortRef{2, 1}, {}, {cc(0)}, /*paused=*/true);
  f.add_port(PortRef{3, 0}, {WaitEntry{bg(1), bg(2), 99}}, {bg(1), bg(2)});
  f.add_cause(PortRef{3, 1}, {{0, 5000}});
  const auto findings = f.classify();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, AnomalyType::kPfcBackpressure);
  EXPECT_EQ(findings[0].root_port, (PortRef{3, 0}));
  ASSERT_EQ(findings[0].pfc_chain.size(), 2u);
  EXPECT_EQ(findings[0].pfc_chain[0], (PortRef{2, 1}));
  EXPECT_EQ(findings[0].pfc_chain[1], (PortRef{3, 0}));
  // The culprit flows feeding the terminal are named.
  EXPECT_EQ(findings[0].contending_flows.size(), 2u);
}

TEST(Signatures, StormViaInjectedCauseOnChain) {
  Fixture f;
  f.add_port(PortRef{2, 1}, {}, {cc(0)}, /*paused=*/true);
  f.add_cause(PortRef{3, 1}, {}, /*injected=*/true);
  const auto findings = f.classify();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, AnomalyType::kPfcStorm);
  EXPECT_EQ(findings[0].root_port, (PortRef{3, 1}));
}

TEST(Signatures, StormPreferredOverBackpressureOnSameChain) {
  Fixture f;
  // Both an injected cause and a congestion cause: the injected storm is
  // the root diagnosis for the chain it halts.
  f.add_port(PortRef{2, 1}, {}, {cc(0)}, /*paused=*/true);
  f.add_cause(PortRef{3, 1}, {{0, 5000}});
  f.add_cause(PortRef{3, 1}, {}, /*injected=*/true);
  f.add_port(PortRef{3, 0}, {}, {bg(1)});
  const auto findings = f.classify();
  bool storm = false;
  for (const auto& finding : findings)
    if (finding.type == AnomalyType::kPfcStorm) storm = true;
  EXPECT_TRUE(storm);
}

TEST(Signatures, DeadlockOnCyclicChain) {
  Fixture f;
  f.add_port(PortRef{2, 1}, {}, {cc(0)}, /*paused=*/true, 20);
  f.add_port(PortRef{3, 1}, {}, {cc(0)}, /*paused=*/true, 20);
  // s1 blames its egress 1 (back toward s0); s0 blames its egress 1 too:
  // (2,1) -> (3,1) -> (2,1) cycle.
  f.add_cause(PortRef{3, 1}, {{1, 1000}});
  f.add_cause(PortRef{2, 1}, {{1, 1000}});
  const auto findings = f.classify();
  bool deadlock = false;
  for (const auto& finding : findings)
    if (finding.type == AnomalyType::kPfcDeadlock) deadlock = true;
  EXPECT_TRUE(deadlock);
}

TEST(Signatures, NoCcInvolvementNoFinding) {
  Fixture f;
  // Background-only congestion: nothing to report for the collective.
  f.add_port(PortRef{2, 1}, {WaitEntry{bg(1), bg(2), 90}}, {bg(1), bg(2)});
  EXPECT_TRUE(f.classify().empty());
}

TEST(Signatures, EmptyGraphNoFindings) {
  Fixture f;
  EXPECT_TRUE(f.classify().empty());
}

TEST(Signatures, MultiplePortsAggregateIntoOneContentionFinding) {
  Fixture f;
  f.add_port(PortRef{2, 1}, {WaitEntry{cc(0), bg(1), 40}}, {cc(0), bg(1)});
  f.add_port(PortRef{3, 1}, {WaitEntry{cc(0), bg(2), 40}}, {cc(0), bg(2)});
  const auto findings = f.classify();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].contending_flows.size(), 2u);
  EXPECT_EQ(findings[0].congested_ports.size(), 2u);
}

}  // namespace
}  // namespace vedr::core
