// Contributor rating (§III-D3): when several tenants' flows squeeze a
// collective at once, which one should the operator throttle first?
//
// Injects three background flows of very different sizes against a Ring
// AllGather, then prints the ranked R(f_a) scores (Eq. 3). The biggest
// sustained interferer must rank first — the paper's case study makes the
// same point with BF2 (104,095) vs BF1 (698).
//
// Build & run:  ./build/examples/contributor_rating
#include <cstdio>

#include "anomaly/injectors.h"
#include "collective/runner.h"
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

  const auto hosts = network.hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               8 << 20);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  // Three interferers into participants' access links: a whale, a mid-size
  // flow, and a minnow.
  struct Bg {
    const char* name;
    net::FlowKey key;
    std::int64_t bytes;
  };
  const std::vector<Bg> interferers = {
      {"whale (96 MiB)", anomaly::background_key(0, hosts[12], participants[1]), 96 << 20},
      {"mid (24 MiB)", anomaly::background_key(1, hosts[13], participants[3]), 24 << 20},
      {"minnow (2 MiB)", anomaly::background_key(2, hosts[14], participants[5]), 2 << 20},
  };
  for (const auto& bg : interferers) anomaly::inject_flow(network, {bg.key, bg.bytes, 0});

  runner.start(0);
  sim.run();

  const core::Diagnosis diag = vedr.diagnose();
  std::printf("collective time: %.2f ms\n\n", sim::to_ms(diag.collective_time));
  std::printf("detected contenders:\n");
  for (const auto& bg : interferers)
    std::printf("  %-16s %s  detected=%s\n", bg.name, bg.key.str().c_str(),
                diag.detects_flow(bg.key) ? "yes" : "no");

  std::printf("\nranked contributor scores R(f_a) (Eq. 3, §III-D3):\n");
  int rank = 1;
  for (const auto& [key, score] : diag.contributions) {
    const char* name = "(other)";
    for (const auto& bg : interferers)
      if (bg.key == key) name = bg.name;
    std::printf("  #%d  %-16s %-24s score=%.0f\n", rank++, name, key.str().c_str(), score);
  }
  if (diag.contributions.empty())
    std::printf("  (no contention observed — rerun, or raise interferer sizes)\n");
  std::printf("\nrecommendation: throttle the top-ranked flow first.\n");
  return 0;
}
