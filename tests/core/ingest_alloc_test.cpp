// Heap allocations of warm analyzer ingest: once an Analyzer has grown its
// pools on a telemetry stream, reset() and a re-ingestion of the same stream
// must allocate nothing. The stream is synthetic and shaped like a
// backpressure/incast case: a ring collective's step records, per-step
// polls, and switch reports mixing collective flows, foreign contenders with
// wait weights, ingress meters, PFC pause-cause chains and TTL drops.
//
// Under sanitizers the interposed allocator changes what "an allocation"
// is; the bound is skipped there, as in steady_state_alloc_test, but the
// loop still runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "collective/plan.h"
#include "core/analyzer.h"
#include "counting_allocator.h"
#include "net/topology.h"
#include "telemetry/records.h"

namespace vedr::core {
namespace {

using net::FlowKey;
using net::PortRef;

struct Stream {
  net::Topology topo;
  collective::CollectivePlan plan;
  std::vector<collective::StepRecord> records;
  std::vector<std::tuple<std::uint64_t, int, int>> polls;  ///< (poll_id, flow, step)
  std::vector<telemetry::SwitchReport> reports;
};

Stream synthesize(int steps, int polls_per_step) {
  net::Topology topo = net::make_fat_tree(4, net::NetConfig{});
  const auto hosts = topo.hosts();
  collective::CollectivePlan plan = collective::CollectivePlan::ring(
      0, collective::OpType::kAllGather, std::vector<net::NodeId>(hosts.begin(), hosts.end()),
      64 << 20);
  Stream w{std::move(topo), std::move(plan), {}, {}, {}};
  const int num_flows = w.plan.num_flows();
  steps = std::min(steps, static_cast<int>(w.plan.steps_of_flow(0).size()));

  std::mt19937 rng(0x5eedu);
  auto uniform = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  auto chance = [&](double p) { return std::bernoulli_distribution(p)(rng); };

  // Every flow runs every step, with a spread of excess over the expected
  // duration so the contributor rating (Eq. 3) is active.
  for (int f = 0; f < num_flows; ++f) {
    for (int s = 0; s < steps; ++s) {
      collective::StepRecord r;
      r.key = w.plan.key_for(f, s);
      r.flow_index = f;
      r.step = s;
      r.bytes = 1 << 20;
      r.start_time = static_cast<sim::Tick>(s) * 1'000'000;
      r.expected_duration = 800'000;
      r.end_time = r.start_time + r.expected_duration + uniform(0, 400'000);
      w.records.push_back(r);
    }
  }

  std::unordered_set<FlowKey, net::FlowKeyHash> cc;
  for (int f = 0; f < num_flows; ++f)
    for (int s = 0; s < steps; ++s) cc.insert(w.plan.key_for(f, s));
  std::vector<FlowKey> foreign;  // high source ports: never a plan key
  for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
    const FlowKey k{hosts[i], hosts[(i + 3) % hosts.size()],
                    static_cast<std::uint16_t>(52000 + i), 4791};
    if (cc.count(k) == 0) foreign.push_back(k);
  }
  std::vector<PortRef> switch_ports;
  for (const net::NodeId sw : w.topo.switches())
    for (std::size_t p = 0; p < w.topo.node(sw).ports.size(); ++p)
      switch_ports.push_back(PortRef{sw, static_cast<net::PortId>(p)});
  auto pick = [&](const auto& v) {
    return v[static_cast<std::size_t>(uniform(0, static_cast<int>(v.size()) - 1))];
  };
  auto cc_flow = [&](int s) { return w.plan.key_for(uniform(0, num_flows - 1), s); };
  auto flow_entry = [&](const FlowKey& k) {
    const int pkts = uniform(100, 10000);
    return telemetry::FlowEntry{k, pkts, std::int64_t{pkts} * 1024};
  };
  auto other_port_of = [&](const PortRef& p) {
    const int fanout = static_cast<int>(w.topo.node(p.node).ports.size());
    auto q = static_cast<net::PortId>(uniform(0, fanout - 1));
    return q == p.port ? static_cast<net::PortId>((q + 1) % fanout) : q;
  };

  std::uint64_t next_poll = 1;
  for (int s = 0; s < steps; ++s) {
    for (int poll = 0; poll < polls_per_step; ++poll) {
      telemetry::SwitchReport report;
      report.poll_id = next_poll;
      w.polls.emplace_back(next_poll++, uniform(0, num_flows - 1), s);
      for (int i = uniform(2, 4); i > 0; --i) {
        telemetry::PortReport pr;
        pr.port = pick(switch_ports);
        pr.poll_time = static_cast<sim::Tick>(s) * 1'000'000 + poll;
        pr.qdepth_pkts = uniform(0, 5000);
        pr.qdepth_bytes = pr.qdepth_pkts * 1024;
        pr.currently_paused = chance(0.25);
        for (int f = uniform(1, 3); f > 0; --f) pr.flows.push_back(flow_entry(cc_flow(s)));
        for (int f = uniform(1, 3); f > 0; --f) pr.flows.push_back(flow_entry(pick(foreign)));
        for (int n = uniform(1, 4); n > 0; --n) {
          telemetry::WaitEntry we{cc_flow(s), chance(0.7) ? pick(foreign) : cc_flow(s), 0};
          if (we.ahead == we.waiter) continue;
          we.weight = uniform(0, 4000);
          pr.waits.push_back(we);
        }
        for (int m = uniform(0, 3); m > 0; --m)
          pr.meters.push_back({other_port_of(pr.port), uniform(0, 1 << 20)});
        report.ports.push_back(std::move(pr));
      }
      if (chance(0.5)) {
        telemetry::PauseCauseReport cause;
        cause.ingress_port = pick(switch_ports);
        cause.injected = chance(0.1);
        for (int c = uniform(1, 3); c > 0; --c)
          cause.contributions.emplace_back(other_port_of(cause.ingress_port),
                                           uniform(0, 1 << 16));
        report.causes.push_back(std::move(cause));
      }
      if (chance(0.1)) {
        telemetry::DropEntry drop;
        drop.flow = chance(0.5) ? pick(foreign) : cc_flow(s);
        drop.port = pick(switch_ports);
        drop.count = uniform(1, 50);
        report.drops.push_back(drop);
      }
      w.reports.push_back(std::move(report));
    }
  }
  return w;
}

void ingest_all(Analyzer& a, const Stream& w) {
  for (const auto& r : w.records) a.add_step_record(r);
  for (const auto& [id, flow, step] : w.polls) a.register_poll(id, flow, step);
  for (const auto& rep : w.reports) a.on_switch_report(rep);
}

TEST(IngestAlloc, WarmAnalyzerReingestsWithoutAllocating) {
  const Stream w = synthesize(/*steps=*/15, /*polls_per_step=*/320);
  ASSERT_FALSE(w.reports.empty());
  // One long-lived analyzer reused through reset(), the deployed shape:
  // the first rounds grow its pools, the counted round rides them.
  Analyzer analyzer(&w.topo, &w.plan);
  for (int round = 0; round < 3; ++round) {
    analyzer.reset();
    ingest_all(analyzer, w);
    const Diagnosis d = analyzer.diagnose();
    ASSERT_FALSE(d.findings.empty());
  }
  analyzer.reset();
  g_allocs.store(0);
  g_counting.store(true);
  ingest_all(analyzer, w);
  g_counting.store(false);
  if (kSanitized) GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
  EXPECT_EQ(g_allocs.load(), 0u) << "warm ingest of " << w.reports.size() << " reports allocated";
}

}  // namespace
}  // namespace vedr::core
