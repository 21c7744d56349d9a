// Figure 14 case study: a Ring collective over 8 hosts with two interfering
// background flows (BF1 ~90 MB, BF2 ~450 MB against 360 MB steps, scaled).
//
// Regenerates the paper's artifacts:
//  (a) the pruned waiting graph + critical path (the bottleneck flow);
//  (b) a per-step network provenance graph around the bottleneck;
//  and the contributor ratings: per-critical-flow scores R(bf, cf) and the
//  collective-level scores R(bf) (Eq. 3) — BF2, five times larger, must
//  dominate BF1, mirroring the paper's 104,095 vs 698.
//
// Env: VEDR_SCALE. Writes DOT files next to the binary: fig14_waiting.dot,
// fig14_provenance.dot.
#include <cstdio>
#include <fstream>

#include "anomaly/injectors.h"
#include "bench_util.h"
#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "net/host.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

int main() {
  using namespace vedr;
  using namespace vedr::bench;

  const double scale = scale_from_env(1.0 / 32.0);
  const auto step_bytes = static_cast<std::int64_t>(360e6 * scale);
  const auto bf1_bytes = static_cast<std::int64_t>(90e6 * scale);
  const auto bf2_bytes = static_cast<std::int64_t>(450e6 * scale);

  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig netcfg;
  const net::Topology topo = net::make_fat_tree(4, netcfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, netcfg);

  // The paper's case study runs the ring over its cluster's "nodes 12-19";
  // we use the last 8 hosts of the fat-tree.
  const auto hosts = network.hosts();
  std::vector<net::NodeId> participants(hosts.begin() + 8, hosts.end());
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               step_bytes);

  // Two background flows deliberately crossing collective paths: BF1 into a
  // participant's pod from outside (starting one step in, like the paper's
  // smaller interferer), BF2 across pods from the start.
  const net::FlowKey bf1 = anomaly::background_key(1, hosts[0], participants[6]);
  const net::FlowKey bf2 = anomaly::background_key(2, hosts[1], participants[5]);
  const sim::Tick step_ideal = sim::transmission_delay(step_bytes, netcfg.link_gbps);

  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);
  anomaly::inject_flow(network, {bf1, bf1_bytes, step_ideal});
  anomaly::inject_flow(network, {bf2, bf2_bytes, 0});
  runner.start(0);
  sim.run(10 * sim::kSecond);

  std::printf("=== Figure 14 case study ===\n");
  std::printf("scale=%.5f  step=%lldB  BF1=%lldB  BF2=%lldB\n", scale,
              static_cast<long long>(step_bytes), static_cast<long long>(bf1_bytes),
              static_cast<long long>(bf2_bytes));
  std::printf("collective completed: %s, time %.2f ms\n", runner.done() ? "yes" : "no",
              sim::to_ms(runner.finish_time() - runner.start_time()));

  core::Diagnosis diag = vedr.diagnose();
  std::printf("\n%s\n", diag.summary().c_str());

  // (a) Waiting graph: pruned vertices + critical path.
  const auto& wg = vedr.analyzer().waiting_graph();
  {
    std::ofstream out("fig14_waiting.dot");
    out << wg.to_dot();
  }
  std::printf("waiting graph: %zu vertices, %zu after pruning -> fig14_waiting.dot\n",
              wg.num_vertices(), wg.pruned_vertices().size());
  std::printf("critical path:");
  for (const auto& [flow, step] : diag.critical_path)
    std::printf(" F%dS%d", flow, step);
  std::printf("\n");
  if (!diag.critical_path.empty()) {
    const auto [bf, bs] = diag.critical_path.back();
    std::printf("bottleneck flow: F%d (host %d)\n", bf,
                runner.plan().participants()[static_cast<std::size_t>(bf)]);
  }

  // (b) Provenance graph of the step where the bottleneck flow ran.
  {
    std::ofstream out("fig14_provenance.dot");
    out << vedr.analyzer().merged_graph().to_dot(runner.plan().flow_keys());
  }
  std::printf("provenance graph -> fig14_provenance.dot\n");

  // Contributor ratings: per-flow and collective-level (Eq. 3).
  std::printf("\ncontribution to each critical flow R(bf, cf_i):\n");
  for (const int step : vedr.analyzer().step_graph_steps()) {
    const int cf = wg.critical_flow_of_step(step);
    if (cf < 0) continue;
    const net::FlowKey cf_key = runner.plan().key_for(cf, step);
    auto& g = *vedr.analyzer().step_graph(step);
    g.finalize();
    const double r1 = g.contribution_to_flow(bf1, cf_key);
    const double r2 = g.contribution_to_flow(bf2, cf_key);
    if (r1 > 0 || r2 > 0)
      std::printf("  step %d (critical F%d): BF1=%.0f BF2=%.0f\n", step, cf, r1, r2);
  }

  std::printf("\ncollective-level scores R(f_a) (Eq. 3):\n");
  double bf1_score = 0, bf2_score = 0;
  for (const auto& [key, score] : diag.contributions) {
    if (key == bf1) bf1_score = score;
    if (key == bf2) bf2_score = score;
  }
  std::printf("  BF1 (%lld B): %.0f\n", static_cast<long long>(bf1_bytes), bf1_score);
  std::printf("  BF2 (%lld B): %.0f\n", static_cast<long long>(bf2_bytes), bf2_score);
  std::printf("  shape check (paper: BF2 104,095 vs BF1 698): BF2 %s BF1\n",
              bf2_score > bf1_score ? ">" : "<=");
  return 0;
}
