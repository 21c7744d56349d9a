// Figure 11: host-side monitor overhead.
//
// The paper measures CPU/memory of the monitor agent during a real 4-node
// NCCL AllGather (1 GB) and finds it negligible. Our testbed substitute
// (see DESIGN.md) measures the same data path with google-benchmark:
//  - per-event costs of everything the monitor does per packet/step
//    (RTT compare + trigger bookkeeping, step arming, notification
//    handling, analyzer record ingestion);
//  - end-to-end simulation wall time of a 4-node AllGather with the
//    monitor attached vs detached — the relative gap is the monitor's
//    processing share.
#include <benchmark/benchmark.h>

#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "net/host.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

namespace {

using namespace vedr;

// --- micro: per-event monitor costs ----------------------------------------

struct MonitorHarness {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::Topology topo = net::make_fat_tree(4, net::NetConfig{});
  net::Network net{engine, net::ShardPlan::single(topo), topo, net::NetConfig{}};
  std::vector<net::NodeId> participants;
  collective::CollectivePlan plan;
  core::Analyzer analyzer;
  core::DomainIngestBuffer ingest{sim, 0, nullptr};
  core::Monitor monitor;
  collective::StepRecord rec;

  MonitorHarness()
      : participants{0, 1, 2, 3},
        plan(collective::CollectivePlan::ring(0, collective::OpType::kAllGather,
                                              {0, 1, 2, 3}, 1 << 20)),
        analyzer(&topo, &plan),
        monitor(net, plan, ingest, 0, core::DetectionConfig{}) {
    rec.flow_index = 0;
    rec.step = 0;
    rec.src = 0;
    rec.dst = 1;
    rec.key = plan.key_for(0, 0);
    rec.bytes = 1 << 20;
    rec.expected_duration = 100 * sim::kMicrosecond;
    rec.start_time = 0;
    monitor.on_step_start(rec);
  }
};

void BM_MonitorRttSampleBelowThreshold(benchmark::State& state) {
  MonitorHarness h;
  const sim::Tick rtt = 1 * sim::kMicrosecond;  // healthy
  std::uint32_t seq = 0;
  for (auto _ : state) h.monitor.on_rtt_sample(h.rec.key, rtt, seq++);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorRttSampleBelowThreshold);

void BM_MonitorRttSampleAboveThreshold(benchmark::State& state) {
  MonitorHarness h;
  const sim::Tick rtt = 10 * sim::kMillisecond;  // anomalous, but budget-capped
  std::uint32_t seq = 0;
  for (auto _ : state) h.monitor.on_rtt_sample(h.rec.key, rtt, seq++);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorRttSampleAboveThreshold);

void BM_MonitorStepStart(benchmark::State& state) {
  MonitorHarness h;
  for (auto _ : state) h.monitor.on_step_start(h.rec);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorStepStart);

void BM_MonitorNotificationReceive(benchmark::State& state) {
  MonitorHarness h;
  net::Packet pkt;
  pkt.type = net::PacketType::kNotification;
  pkt.meta = net::NotifyInfo{0, 0, 1, 1};
  for (auto _ : state) h.monitor.on_control_packet(pkt, 0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorNotificationReceive);

void BM_AnalyzerStepRecordIngest(benchmark::State& state) {
  MonitorHarness h;
  for (auto _ : state) h.analyzer.add_step_record(h.rec);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzerStepRecordIngest);

// --- macro: 4-node AllGather (paper's testbed op), monitor on vs off -------

void run_allgather(bool with_monitor, std::int64_t bytes) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  auto plan = collective::CollectivePlan::ring(
      0, collective::OpType::kAllGather, {0, 1, 2, 3}, bytes);
  collective::CollectiveRunner runner(network, std::move(plan));
  std::unique_ptr<core::Vedrfolnir> vedr;
  if (with_monitor) vedr = std::make_unique<core::Vedrfolnir>(network, runner);
  runner.start(0);
  sim.run(60 * sim::kSecond);
  if (!runner.done()) std::abort();
}

void BM_AllGather4NodeWithoutMonitor(benchmark::State& state) {
  const auto bytes = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) run_allgather(false, bytes);
}
BENCHMARK(BM_AllGather4NodeWithoutMonitor)->Arg(1 << 22)->Arg(1 << 24)
    ->Unit(benchmark::kMillisecond);

void BM_AllGather4NodeWithMonitor(benchmark::State& state) {
  const auto bytes = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) run_allgather(true, bytes);
}
BENCHMARK(BM_AllGather4NodeWithMonitor)->Arg(1 << 22)->Arg(1 << 24)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
