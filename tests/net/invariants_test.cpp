// Proves the runtime invariant checks actually fire: each test corrupts
// internal state through a test-only backdoor (or passes illegal parameters)
// and asserts the corresponding VEDR_CHECK trips. ScopedThrowOnCheckFailure
// converts the failure into an exception so no death tests are needed (death
// tests interact poorly with the sanitizer runtimes).
#include <gtest/gtest.h>

#include "common/check.h"
#include "net/dcqcn.h"
#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

namespace vedr::net {
namespace {

using common::CheckFailure;
using common::InvariantAuditor;
using common::ScopedThrowOnCheckFailure;

struct StarFixture {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  Topology topo;
  Network net;

  explicit StarFixture(int hosts = 3, NetConfig cfg = NetConfig{})
      : topo(make_star(hosts, cfg)), net(engine, ShardPlan::single(topo), topo, cfg) {}

  NodeId sw() const { return topo.switches()[0]; }
};

/// Runs one short flow so the switch has live queue/telemetry state.
void run_some_traffic(StarFixture& f) {
  const FlowKey key{0, 1, 7, 9};
  f.net.host(1).expect_flow(key, 64 * 1024);
  f.net.host(0).start_flow(key, 64 * 1024);
  f.sim.run(200 * sim::kMicrosecond);
}

TEST(SwitchInvariants, AuditPassesOnHealthySwitch) {
  StarFixture f;
  run_some_traffic(f);
  ScopedThrowOnCheckFailure guard;
  EXPECT_NO_THROW(f.net.switch_at(f.sw()).audit_invariants());
}

TEST(SwitchInvariants, CorruptedEgressAccountingIsCaught) {
  StarFixture f;
  run_some_traffic(f);
  Switch& sw = f.net.switch_at(f.sw());
  SwitchTestPeer::corrupt_egress_bytes(sw, /*port=*/1, Priority::kData, /*delta=*/100);
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(sw.audit_invariants(), CheckFailure);
}

TEST(SwitchInvariants, NegativeEgressAccountingIsCaught) {
  StarFixture f;
  run_some_traffic(f);
  Switch& sw = f.net.switch_at(f.sw());
  SwitchTestPeer::corrupt_egress_bytes(sw, /*port=*/1, Priority::kData, /*delta=*/-4096);
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(sw.audit_invariants(), CheckFailure);
}

TEST(SwitchInvariants, CorruptedIngressPfcCounterIsCaught) {
  StarFixture f;
  run_some_traffic(f);
  Switch& sw = f.net.switch_at(f.sw());
  SwitchTestPeer::corrupt_ingress_bytes(sw, /*port=*/0, /*delta=*/1 << 20);
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(sw.audit_invariants(), CheckFailure);
}

TEST(SwitchInvariants, InvertedPfcHysteresisRejectedAtConstruction) {
  NetConfig cfg;
  cfg.pfc_xoff_bytes = 100 * 1024;
  cfg.pfc_xon_bytes = 200 * 1024;  // XON above XOFF: pause would never clear
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(StarFixture f(3, cfg), CheckFailure);
}

TEST(SwitchInvariants, InvertedEcnThresholdsRejectedAtConstruction) {
  NetConfig cfg;
  cfg.ecn_kmin_bytes = 400 * 1024;
  cfg.ecn_kmax_bytes = 100 * 1024;
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(StarFixture f(3, cfg), CheckFailure);
}

TEST(SwitchInvariants, AuditorScopeRunsAuditsDuringTraffic) {
  InvariantAuditor::Scope scope;
  const std::uint64_t before = InvariantAuditor::audits_run();
  StarFixture f;
  run_some_traffic(f);
  EXPECT_GT(InvariantAuditor::audits_run(), before)
      << "enqueue path must run deep audits while the auditor is enabled";
}

DcqcnParams dcqcn_params() {
  DcqcnParams p;
  p.line_rate_gbps = 100.0;
  return p;
}

TEST(DcqcnInvariants, AlphaAboveOneIsCaught) {
  sim::Simulator sim;
  DcqcnFlow f(sim, dcqcn_params());
  DcqcnTestPeer::set_alpha(f, 1.5);
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(f.on_cnp(), CheckFailure);
}

TEST(DcqcnInvariants, NegativeAlphaIsCaught) {
  sim::Simulator sim;
  DcqcnFlow f(sim, dcqcn_params());
  DcqcnTestPeer::set_alpha(f, -0.25);
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(f.on_cnp(), CheckFailure);
}

TEST(DcqcnInvariants, RateBelowMinIsCaught) {
  sim::Simulator sim;
  DcqcnFlow f(sim, dcqcn_params());
  DcqcnTestPeer::set_rate(f, 0.01);  // below min_rate_gbps = 1.0
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(f.on_cnp(), CheckFailure);
}

TEST(DcqcnInvariants, IllegalParamsRejectedAtConstruction) {
  sim::Simulator sim;
  ScopedThrowOnCheckFailure guard;
  {
    DcqcnParams p = dcqcn_params();
    p.min_rate_gbps = 0;
    EXPECT_THROW(DcqcnFlow f(sim, p), CheckFailure);
  }
  {
    DcqcnParams p = dcqcn_params();
    p.min_rate_gbps = 200.0;  // min above line rate
    EXPECT_THROW(DcqcnFlow f(sim, p), CheckFailure);
  }
  {
    DcqcnParams p = dcqcn_params();
    p.g = 1.5;  // EWMA gain outside (0, 1]
    EXPECT_THROW(DcqcnFlow f(sim, p), CheckFailure);
  }
}

}  // namespace
}  // namespace vedr::net
