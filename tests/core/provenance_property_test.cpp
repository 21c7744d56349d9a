// Randomized equivalence check: the flat interned ProvenanceGraph must
// answer every query identically to the original map-based implementation
// (kept verbatim in reference_provenance.h). Both graphs ingest the same
// synthesized switch reports; every query family the diagnosis pipeline
// uses is then compared exactly — the arithmetic is either integer or
// performed in the same canonical order, so even the doubles must match
// bit for bit. The key queries read the same finalized rows the analyzer
// reads, and the findings of the reference classifier over the reference
// graph must equal the shipped classifier's over the flat one.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_set>
#include <vector>

#include "core/provenance_graph.h"
#include "core/signatures.h"
#include "net/topology.h"
#include "telemetry/records.h"
#include "reference_provenance.h"

namespace vedr {
namespace {

using net::FlowKey;
using net::PortRef;

struct Synth {
  explicit Synth(std::uint32_t seed) : rng(seed) {}

  int uniform(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); }
  bool chance(double p) { return std::bernoulli_distribution(p)(rng); }

  std::mt19937 rng;
};

class PropertyFixture {
 public:
  PropertyFixture() : topo_(net::make_fat_tree(4, net::NetConfig{})) {
    for (const net::NodeId s : topo_.switches()) {
      const auto& node = topo_.node(s);
      for (std::size_t p = 0; p < node.ports.size(); ++p)
        switch_ports_.push_back(PortRef{s, static_cast<net::PortId>(p)});
    }
    const auto hosts = topo_.hosts();
    for (std::size_t i = 0; i + 1 < hosts.size(); i += 1) {
      FlowKey k;
      k.src = hosts[i];
      k.dst = hosts[(i + 5) % hosts.size()];
      k.sport = static_cast<std::uint16_t>(9000 + i);
      k.dport = 4791;
      flows_.push_back(k);
    }
  }

  telemetry::SwitchReport random_report(Synth& s) const {
    telemetry::SwitchReport report;
    report.poll_id = static_cast<std::uint64_t>(s.uniform(0, 1 << 20));
    const int n_ports = s.uniform(1, 4);
    for (int i = 0; i < n_ports; ++i) {
      telemetry::PortReport pr;
      pr.port = pick_port(s);
      pr.poll_time = s.uniform(0, 100000);
      pr.qdepth_pkts = s.uniform(0, 5000);
      pr.qdepth_bytes = pr.qdepth_pkts * 1024;
      pr.currently_paused = s.chance(0.25);
      const int n_flows = s.uniform(0, 5);
      for (int f = 0; f < n_flows; ++f) {
        telemetry::FlowEntry fe;
        fe.flow = pick_flow(s);
        fe.pkts = s.uniform(0, 10000);
        fe.bytes = fe.pkts * 1024;
        pr.flows.push_back(fe);
      }
      const int n_waits = s.uniform(0, 4);
      for (int w = 0; w < n_waits; ++w) {
        telemetry::WaitEntry we;
        we.waiter = pick_flow(s);
        we.ahead = pick_flow(s);
        if (we.ahead == we.waiter) continue;  // self-waits are invalid telemetry
        we.weight = s.uniform(0, 4000);
        pr.waits.push_back(we);
      }
      const int n_meters = s.uniform(0, 3);
      for (int m = 0; m < n_meters; ++m) {
        telemetry::MeterEntry me;
        me.in_port = other_port_of(s, pr.port);
        me.bytes = s.uniform(0, 1 << 20);
        pr.meters.push_back(me);
      }
      report.ports.push_back(pr);
    }
    if (s.chance(0.5)) {
      telemetry::PauseCauseReport cause;
      cause.ingress_port = pick_port(s);
      cause.injected = s.chance(0.2);
      const int n_contrib = s.uniform(1, 3);
      for (int c = 0; c < n_contrib; ++c)
        cause.contributions.emplace_back(other_port_of(s, cause.ingress_port),
                                         s.uniform(0, 1 << 16));
      report.causes.push_back(cause);
    }
    if (s.chance(0.2)) {
      telemetry::DropEntry drop;
      drop.flow = pick_flow(s);
      drop.port = pick_port(s);
      drop.count = s.uniform(1, 50);
      report.drops.push_back(drop);
    }
    return report;
  }

  const net::Topology& topo() const { return topo_; }
  const std::vector<FlowKey>& flows() const { return flows_; }

 private:
  PortRef pick_port(Synth& s) const {
    return switch_ports_[static_cast<std::size_t>(
        s.uniform(0, static_cast<int>(switch_ports_.size()) - 1))];
  }
  FlowKey pick_flow(Synth& s) const {
    return flows_[static_cast<std::size_t>(
        s.uniform(0, static_cast<int>(flows_.size()) - 1))];
  }
  net::PortId other_port_of(Synth& s, const PortRef& p) const {
    const int fanout = static_cast<int>(topo_.node(p.node).ports.size());
    net::PortId q = static_cast<net::PortId>(s.uniform(0, fanout - 1));
    if (q == p.port) q = static_cast<net::PortId>((q + 1) % fanout);
    return q;
  }

  net::Topology topo_;
  std::vector<PortRef> switch_ports_;
  std::vector<FlowKey> flows_;
};

/// Whether drops() must list the keys in the same order, or only hold the
/// same record per (flow, port).
enum class DropOrder { kSame, kAny };

/// Every query family the diagnosis pipeline uses, compared exactly. `Ref`
/// is the reference implementation, or a flat graph built another way.
template <class Ref>
void expect_graphs_agree(const PropertyFixture& fx, const Ref& ref,
                         const core::ProvenanceGraph& flat,
                         DropOrder drop_order = DropOrder::kSame) {
  // Vertex enumerations.
  EXPECT_EQ(ref.ports(), flat.ports());
  EXPECT_EQ(ref.flows(), flat.flows());

  FlowKey unseen;
  unseen.src = 1;
  unseen.dst = 2;
  unseen.sport = 1;
  unseen.dport = 1;

  std::vector<FlowKey> probes = fx.flows();
  probes.push_back(unseen);

  for (const FlowKey& f : probes) {
    EXPECT_EQ(ref.ports_waited_by(f), flat.ports_waited_by(f)) << f.str();
    for (const FlowKey& cf : probes) {
      const double r_ref = ref.contribution_to_flow(f, cf);
      const double r_flat = flat.contribution_to_flow(f, cf);
      EXPECT_EQ(r_ref, r_flat) << f.str() << " -> " << cf.str();
    }
  }

  for (const PortRef& p : ref.ports()) {
    EXPECT_EQ(ref.waiters_at(p), flat.waiters_at(p)) << p.str();
    EXPECT_EQ(ref.flows_at(p), flat.flows_at(p)) << p.str();
    EXPECT_EQ(ref.pfc_downstream(p), flat.pfc_downstream(p)) << p.str();
    EXPECT_EQ(ref.port_paused_recently(p), flat.port_paused_recently(p)) << p.str();
    for (const FlowKey& f : probes) {
      EXPECT_EQ(ref.flow_port_weight(f, p), flat.flow_port_weight(f, p));
      EXPECT_EQ(ref.port_flow_weight(p, f), flat.port_flow_weight(p, f));
      for (const FlowKey& a : fx.flows())
        EXPECT_EQ(ref.pair_weight(p, f, a), flat.pair_weight(p, f, a));
    }
    for (const PortRef& d : ref.pfc_downstream(p)) {
      EXPECT_EQ(ref.port_port_weight(p, d), flat.port_port_weight(p, d));
      EXPECT_EQ(ref.port_port_contribution(p, d), flat.port_port_contribution(p, d));
    }
  }

  // PFC metadata the classifier consumes.
  EXPECT_EQ(ref.storm_sources(), flat.storm_sources());
  ASSERT_EQ(ref.drops().size(), flat.drops().size());
  for (std::size_t i = 0; i < ref.drops().size(); ++i) {
    const telemetry::DropEntry& want = ref.drops()[i];
    const telemetry::DropEntry* got = &flat.drops()[i];
    if (drop_order == DropOrder::kAny) {
      const auto same_key = [&](const telemetry::DropEntry& d) {
        return d.flow == want.flow && d.port == want.port;
      };
      const auto it = std::find_if(flat.drops().begin(), flat.drops().end(), same_key);
      ASSERT_NE(it, flat.drops().end()) << want.flow.str() << " at " << want.port.str();
      got = &*it;
    }
    EXPECT_EQ(want.flow, got->flow);
    EXPECT_EQ(want.port, got->port);
    EXPECT_EQ(want.count, got->count);
  }
}

/// The reference classifier over `ref` and the shipped one over `flat` must
/// emit exactly the same findings, for collective flow sets of several sizes.
void expect_findings_agree(const PropertyFixture& fx, const refimpl::ProvenanceGraph& ref,
                           const core::ProvenanceGraph& flat) {
  const refimpl::SignatureClassifier oracle;
  const core::SignatureClassifier classifier;
  for (const std::size_t n : {2, 5, 10}) {
    const std::unordered_set<FlowKey, net::FlowKeyHash> cc(fx.flows().begin(),
                                                           fx.flows().begin() + n);
    const std::vector<core::AnomalyFinding> want = oracle.classify(ref, cc, 3);
    const std::vector<core::AnomalyFinding> got = classifier.classify(flat, cc, 3);
    ASSERT_FALSE(want.empty()) << "a comparison without findings checks nothing";
    ASSERT_EQ(want.size(), got.size()) << n << " collective flows";
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].type, got[i].type) << want[i].str();
      EXPECT_EQ(want[i].contending_flows, got[i].contending_flows) << want[i].str();
      EXPECT_EQ(want[i].congested_ports, got[i].congested_ports) << want[i].str();
      EXPECT_EQ(want[i].pfc_chain, got[i].pfc_chain) << want[i].str();
      EXPECT_EQ(want[i].root_port, got[i].root_port) << want[i].str();
      EXPECT_EQ(want[i].step, got[i].step) << want[i].str();
    }
  }
}

class ProvenanceProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ProvenanceProperty, FlatLayoutMatchesReferenceImplementation) {
  PropertyFixture fx;
  Synth s(GetParam());

  std::vector<telemetry::SwitchReport> reports;
  const int n_reports = s.uniform(20, 60);
  for (int i = 0; i < n_reports; ++i) reports.push_back(fx.random_report(s));

  refimpl::ProvenanceGraph ref(&fx.topo());
  core::ProvenanceGraph flat(&fx.topo());
  for (const auto& r : reports) {
    ref.add_report(r);
    flat.add_report(r);
  }
  ref.finalize();
  flat.finalize();
  expect_graphs_agree(fx, ref, flat);
  expect_findings_agree(fx, ref, flat);

  // reset() must restore a pristine graph over warmed buffers: re-ingesting
  // the same stream has to reproduce every answer again.
  flat.reset();
  EXPECT_TRUE(flat.empty());
  for (const auto& r : reports) flat.add_report(r);
  flat.finalize();
  expect_graphs_agree(fx, ref, flat);
  expect_findings_agree(fx, ref, flat);
}

// The analyzer keeps each report in one graph (its step's, or the global
// one) and merges them only for export. Split a random stream across several
// graphs at random, merge them in an arbitrary order, and the union must
// answer every query, hold the same drop per (flow, port), list its PFC
// edges and draw its DOT exactly like one graph that ingested the whole
// stream in order.
TEST_P(ProvenanceProperty, MergedGraphsMatchOneGraphOverTheWholeStream) {
  PropertyFixture fx;
  Synth s(GetParam() + 100);

  std::vector<telemetry::SwitchReport> reports;
  const int n_reports = s.uniform(20, 60);
  const PortRef drop_ports[] = {{16, 0}, {17, 2}};
  for (int i = 0; i < n_reports; ++i) {
    reports.push_back(fx.random_report(s));
    // Several drops per report over four (flow, port) keys, so a key recurs
    // within and across graphs and the highest count must win.
    auto& drops = reports.back().drops;
    drops.clear();
    const int n_drops = s.uniform(0, 3);
    for (int j = 0; j < n_drops; ++j) {
      telemetry::DropEntry drop;
      drop.flow = fx.flows()[static_cast<std::size_t>(s.uniform(0, 1))];
      drop.port = drop_ports[s.uniform(0, 1)];
      drop.count = s.uniform(1, 3);
      drops.push_back(drop);
    }
  }

  core::ProvenanceGraph whole(&fx.topo());
  for (const auto& r : reports) whole.add_report(r);
  whole.finalize();

  constexpr int kParts = 4;
  core::InternTables tables;
  std::vector<core::ProvenanceGraph> parts;
  for (int p = 0; p < kParts; ++p) parts.emplace_back(&fx.topo(), &tables);
  for (std::size_t i = 0; i < reports.size(); ++i)
    parts[static_cast<std::size_t>(s.uniform(0, kParts - 1))].add_report(reports[i], i);

  core::ProvenanceGraph merged(&fx.topo(), &tables);
  for (const int p : {2, 0, 3, 1}) merged.merge(parts[static_cast<std::size_t>(p)]);
  merged.finalize();

  expect_graphs_agree(fx, whole, merged, DropOrder::kAny);
  EXPECT_EQ(merged.report_count(), whole.report_count());
  EXPECT_EQ(merged.pfc_edges(), whole.pfc_edges());
  std::unordered_set<FlowKey, net::FlowKeyHash> cc(fx.flows().begin(), fx.flows().begin() + 3);
  EXPECT_EQ(merged.to_dot(cc), whole.to_dot(cc));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProvenanceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u));

}  // namespace
}  // namespace vedr
