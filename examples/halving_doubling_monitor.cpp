// Halving-and-Doubling decomposition (§III-B, Fig. 1b): the destination of
// each flow changes every step, so a fixed RTT threshold is wrong somewhere
// — exactly the failure mode Vedrfolnir's step-grained thresholds fix.
//
// This example prints the decomposition (SSQ/RSQ per host, partner and
// volume per step), the per-step base RTTs (showing why one fixed number
// cannot fit), then runs the collective with a mid-run interferer and shows
// the live Table-I waiting states plus the final diagnosis.
//
// Build & run:  ./build/examples/halving_doubling_monitor
#include <cstdio>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "collective/step_queues.h"
#include "core/vedrfolnir.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

int main() {
  using namespace vedr;

  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  // Spread participants across pods so partner distances change hop counts.
  const std::vector<net::NodeId> participants = {0, 2, 4, 6, 8, 10, 12, 14};
  auto plan = collective::CollectivePlan::halving_doubling(
      0, collective::OpType::kAllGather, participants, 4 << 20);

  std::printf("Halving-and-Doubling AllGather over 8 hosts, 3 steps:\n");
  for (int f = 0; f < plan.num_flows(); ++f) {
    std::printf("  host %-2d sends:", participants[static_cast<std::size_t>(f)]);
    for (const auto& s : plan.steps_of_flow(f))
      std::printf("  S%d->h%d (%lld B)", s.step, s.dst, static_cast<long long>(s.bytes));
    std::printf("\n");
  }

  std::printf("\nper-step base RTTs for flow 0 (why fixed thresholds fail, §III-C2):\n");
  for (const auto& s : plan.steps_of_flow(0)) {
    const auto key = plan.key_for(0, s.step);
    std::printf("  step %d -> host %-2d: base RTT %.1f us\n", s.step, s.dst,
                sim::to_us(network.base_rtt(key)));
  }

  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  // Interferer arriving during step 1.
  const net::FlowKey bg = anomaly::background_key(0, 1, participants[3]);
  anomaly::inject_flow(network, {bg, 48 << 20, 300 * sim::kMicrosecond});

  // Sample the Table-I waiting states mid-run.
  std::printf("\nlive waiting states (W=waiting, n=non-waiting, F=finished):\n");
  for (int i = 1; i <= 8; ++i) {
    sim.schedule_at(i * 200 * sim::kMicrosecond, [&runner, &sim, i] {
      std::printf("  t=%4dus:", i * 200);
      for (int f = 0; f < runner.plan().num_flows(); ++f) {
        const auto st = runner.queues(f).state();
        std::printf(" %c", st == collective::WaitState::kWaiting
                               ? 'W'
                               : (st == collective::WaitState::kFinished ? 'F' : 'n'));
      }
      std::printf("\n");
      (void)sim;
    });
  }

  runner.start(0);
  sim.run();

  std::printf("\ncollective finished in %.2f ms\n",
              sim::to_ms(runner.finish_time() - runner.start_time()));
  const core::Diagnosis diag = vedr.diagnose();
  std::printf("\n%s\n", diag.summary().c_str());
  std::printf("interferer detected: %s\n", diag.detects_flow(bg) ? "YES" : "no");
  return 0;
}
