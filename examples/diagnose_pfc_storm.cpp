// PFC storm walkthrough: inject continuous PAUSE frames at a switch port on
// a collective path (modeling the NIC/switch firmware bugs of §II-B) and
// watch Vedrfolnir trace the spreading path back to the injection point.
//
// Demonstrates the full §III-C/III-D pipeline:
//   RTT spike -> budgeted poll along the flow path -> chase polls along the
//   PFC spreading path -> injected pause-cause record -> PfcStorm finding
//   with the exact root port.
//
// Build & run:  ./build/examples/diagnose_pfc_storm
#include <cstdio>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/sharded_engine.h"

int main() {
  using namespace vedr;

  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  const auto hosts = network.hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               8 << 20);

  // Pick the injection point the way the evaluation does: a switch-to-switch
  // link on a collective path; the downstream side emits the PAUSEs. Ring
  // neighbors on the same edge switch have no such link, so scan flows until
  // one crosses the fabric.
  net::FlowKey victim_key{};
  net::PortRef injection{};
  for (int f = 0; f < plan.num_flows() && !injection.valid(); ++f) {
    const net::FlowKey key = plan.key_for(f, 0);
    for (const auto& hop : network.routing().port_path_of(network.topology(), key)) {
      if (network.topology().is_host(hop.node)) continue;
      const auto peer = network.topology().peer(hop.node, hop.port);
      if (!network.topology().is_host(peer.node)) {
        injection = peer;
        victim_key = key;
        break;
      }
    }
  }
  std::printf("victim flow %s path:", victim_key.str().c_str());
  for (const auto& hop : network.routing().port_path_of(network.topology(), victim_key))
    std::printf(" %s", hop.str().c_str());
  std::printf("\nstorm injection point: %s (pauses its link peer for 2 ms)\n\n",
              injection.str().c_str());

  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);
  anomaly::inject_storm(network, {injection, /*start=*/200 * sim::kMicrosecond,
                                  /*duration=*/2 * sim::kMillisecond});

  runner.start(0);
  sim.run();

  std::printf("collective finished in %.2f ms\n",
              sim::to_ms(runner.finish_time() - runner.start_time()));

  const core::Diagnosis diag = vedr.diagnose();
  std::printf("\n%s\n", diag.summary().c_str());

  bool traced = false;
  for (const auto& finding : diag.findings) {
    if (finding.type == core::AnomalyType::kPfcStorm && finding.root_port == injection)
      traced = true;
  }
  std::printf("storm traced to injection port: %s\n", traced ? "YES" : "no");
  return 0;
}
