// PFC deadlock walkthrough (§II-B anomaly 4, §V extension).
//
// Fabric: a 4-switch ring with routing pinned clockwise, so four crossing
// collective flows put two line-rate flows on every inter-switch link. With
// ECN disabled, line-rate start fills buffers in microseconds, every switch
// PAUSEs its upstream neighbour, and the PAUSE chain closes on itself: a
// cyclic buffer dependency that never resolves. All flows halt — so there
// are no ACKs, no RTT samples, and RTT-threshold detection (Hawkeye's only
// trigger) is completely blind.
//
// Vedrfolnir's stalled-flow watchdog (§V) fires anyway, the chase polls walk
// the PAUSE cycle, and the classifier reports PfcDeadlock with the cycle.
//
// Build & run:  ./build/examples/diagnose_deadlock
#include <cstdio>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "net/network.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

int main() {
  using namespace vedr;

  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  cfg.ecn_kmin_bytes = 1 << 30;  // ECN off: nothing tames the line-rate start
  cfg.ecn_kmax_bytes = 1 << 30;
  const net::Topology topo = net::make_switch_ring(4, 1, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  const auto switches = network.switches();
  anomaly::pin_clockwise_routes(network, switches);

  // Participants ordered so ring neighbours are two switches apart: every
  // inter-switch link carries two concurrent flows.
  const std::vector<net::NodeId> participants = {0, 2, 1, 3};
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               4 << 20);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  runner.start(0);
  sim.run(2 * sim::kSecond);

  std::printf("collective completed: %s (it should NOT — the fabric deadlocked)\n",
              runner.done() ? "yes" : "no");
  std::printf("events simulated: %llu, final time %.2f ms\n",
              static_cast<unsigned long long>(sim.events_executed()), sim::to_ms(sim.now()));

  std::printf("\nswitch pause state (each pauses its counter-clockwise neighbour):\n");
  for (net::NodeId sw : switches) {
    std::printf("  switch %d:", sw);
    for (net::PortId p = 0; p < network.switch_at(sw).num_ports(); ++p)
      if (network.switch_at(sw).sending_pause_on(p)) std::printf(" PAUSE on port %d", p);
    std::printf("\n");
  }

  const core::Diagnosis diag = vedr.diagnose();
  std::printf("\n%s\n", diag.summary().c_str());

  int watchdog = 0;
  for (net::NodeId h : participants) watchdog += vedr.monitor_of(h).watchdog_polls();
  std::printf("watchdog polls fired (no ACKs -> RTT triggers blind): %d\n", watchdog);
  std::printf("deadlock diagnosed: %s\n",
              diag.has_type(core::AnomalyType::kPfcDeadlock) ? "YES" : "no");
  return 0;
}
