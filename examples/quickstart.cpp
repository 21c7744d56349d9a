// Quickstart: the smallest end-to-end Vedrfolnir session.
//
//  1. Build the paper's fabric: a K=4 fat-tree (20 switches, 16 hosts,
//     100 Gbps links) with PFC + ECN/DCQCN.
//  2. Decompose a Ring AllGather over 8 hosts into steps (§III-B).
//  3. Attach Vedrfolnir (host monitors + analyzer).
//  4. Inject a background flow that collides with the collective.
//  5. Run and print the diagnosis: root causes, bottleneck critical path,
//     and contributor ratings.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

int main() {
  using namespace vedr;

  // 1. Fabric.
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;  // 100 Gbps / 2 us links, PFC XOFF 200 KB, ECN 40-160 KB
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  // 2. Collective: Ring AllGather, 8 participants, 8 MiB per step.
  const auto hosts = network.hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  auto plan = collective::CollectivePlan::ring(/*collective_id=*/0,
                                               collective::OpType::kAllGather, participants,
                                               /*bytes_per_step=*/8 << 20);
  collective::CollectiveRunner runner(network, std::move(plan));

  // 3. Diagnosis system. Default config: 120% step-grained RTT thresholds,
  //    3 detections per step, adaptive budget transfer.
  core::Vedrfolnir vedr(network, runner);

  // 4. A 64 MiB background flow from a non-participant into participant 1's
  //    access link: classic flow contention.
  const net::FlowKey bg = anomaly::background_key(0, hosts[12], participants[1]);
  anomaly::inject_flow(network, {bg, 64 << 20, /*start=*/0});

  // 5. Run to completion and diagnose.
  runner.start(0);
  sim.run();

  std::printf("collective finished in %.2f ms (%llu simulated events)\n",
              sim::to_ms(runner.finish_time() - runner.start_time()),
              static_cast<unsigned long long>(sim.events_executed()));

  const core::Diagnosis diag = vedr.diagnose();
  std::printf("\n%s\n", diag.summary().c_str());

  std::printf("injected flow %s detected: %s\n", bg.str().c_str(),
              diag.detects_flow(bg) ? "YES" : "no");
  std::printf("polls sent: %d, notifications: %d, telemetry collected: %lld bytes\n",
              vedr.total_polls(), vedr.total_notifications(),
              static_cast<long long>(network.stats().counter("overhead.telemetry_bytes")));
  return 0;
}
