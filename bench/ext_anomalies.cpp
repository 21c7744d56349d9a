// Extension-anomaly sweep (beyond the paper's four evaluated scenarios):
// routing loops, PFC deadlocks, and ECMP load imbalance, each over seeded
// randomized cases. Shows the signature set generalizing (§V) with the
// stalled-flow watchdog carrying detection when anomalies silence the
// ACK stream entirely.
//
// Env: VEDR_CASES (cases per type, default 10).
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "common/env.h"
#include "core/vedrfolnir.h"
#include "net/network.h"
#include "sim/rng.h"
#include "sim/sharded_engine.h"

namespace {

using namespace vedr;

int cases_from_env() {
  const auto env = common::env_str("VEDR_CASES");
  return env ? common::parse_int_or_die("VEDR_CASES", *env, 1, INT_MAX) : 10;
}

std::vector<net::NodeId> sample_hosts(sim::Rng& rng, const net::Topology& topo, int n) {
  auto hosts = topo.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::size_t j = i + rng.index(hosts.size() - i);
    std::swap(hosts[i], hosts[j]);
  }
  hosts.resize(static_cast<std::size_t>(n));
  return hosts;
}

bool run_loop_case(int id) {
  sim::Rng rng(sim::Rng::mix(0x100F, static_cast<std::uint64_t>(id)));
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  const auto participants = sample_hosts(rng, network.topology(), 8);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               2 << 20);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  // Loop between a random participant's edge switch and one of its aggs.
  const net::NodeId victim = participants[rng.index(participants.size())];
  const net::NodeId edge = network.topology().peer(victim, 0).node;
  const auto& eports = network.topology().node(edge).ports;
  // Uplinks are the non-host ports.
  std::vector<net::NodeId> aggs;
  for (const auto& p : eports)
    if (!network.topology().is_host(p.peer)) aggs.push_back(p.peer);
  const net::NodeId agg = aggs[rng.index(aggs.size())];
  anomaly::inject_routing_loop(network, victim, edge, agg,
                               rng.uniform_int(0, 500) * sim::kMicrosecond);

  runner.start(0);
  sim.run(500 * sim::kMillisecond);
  const auto diag = vedr.diagnose();
  return diag.has_type(core::AnomalyType::kRoutingLoop);
}

bool run_deadlock_case(int id) {
  sim::Rng rng(sim::Rng::mix(0xDEAD, static_cast<std::uint64_t>(id)));
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  cfg.ecn_kmin_bytes = 1 << 30;
  cfg.ecn_kmax_bytes = 1 << 30;
  const int ring_size = 3 + static_cast<int>(rng.uniform_int(0, 2));  // 3-5 switches
  const net::Topology topo = net::make_switch_ring(ring_size, 1, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  anomaly::pin_clockwise_routes(network, network.switches());

  // Crossing flows: participant order skips around the ring.
  std::vector<net::NodeId> participants;
  for (int i = 0; i < ring_size; ++i)
    participants.push_back(static_cast<net::NodeId>((i * 2) % ring_size));
  if (ring_size % 2 == 0) {  // even rings need the odd half too
    participants.clear();
    for (int i = 0; i < ring_size; ++i) participants.push_back(static_cast<net::NodeId>(i));
    std::swap(participants[1], participants[2]);
  }
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               4 << 20);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);
  runner.start(0);
  sim.run(2 * sim::kSecond);
  const auto diag = vedr.diagnose();
  return diag.has_type(core::AnomalyType::kPfcDeadlock);
}

bool run_imbalance_case(int id) {
  sim::Rng rng(sim::Rng::mix(0x10AD, static_cast<std::uint64_t>(id)));
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  // Two same-edge hosts with cross-pod destinations, pinned to one uplink.
  const net::NodeId edge = network.switches()[static_cast<std::size_t>(rng.uniform_int(0, 7))];
  std::vector<net::NodeId> local, remote;
  for (net::NodeId h : network.topology().hosts()) {
    if (network.topology().peer(h, 0).node == edge) {
      local.push_back(h);
    } else {
      remote.push_back(h);
    }
  }
  if (local.size() < 2) return run_imbalance_case(id + 1000);
  std::vector<net::NodeId> participants = {local[0], remote[rng.index(4)],
                                           local[1], remote[8 + rng.index(4)]};
  const net::PortId uplink = static_cast<net::PortId>(2 + rng.uniform_int(0, 1));
  for (net::NodeId dst : remote) network.routing().override_route(edge, dst, {uplink});

  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               4 << 20);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);
  runner.start(0);
  sim.run(10 * sim::kSecond);
  if (!runner.done()) return false;
  return vedr.diagnose().has_type(core::AnomalyType::kLoadImbalance);
}

}  // namespace

int main() {
  const int n = cases_from_env();
  std::printf("=== Extension anomalies: detection rate over %d seeded cases each ===\n\n", n);

  struct Row {
    const char* name;
    bool (*fn)(int);
  };
  const Row rows[] = {
      {"RoutingLoop", run_loop_case},
      {"PfcDeadlock", run_deadlock_case},
      {"LoadImbalance", run_imbalance_case},
  };
  for (const auto& row : rows) {
    int detected = 0;
    for (int i = 0; i < n; ++i)
      if (row.fn(i)) ++detected;
    std::printf("%-14s detected %d/%d (%.0f%%)\n", row.name, detected, n,
                100.0 * detected / n);
  }
  return 0;
}
