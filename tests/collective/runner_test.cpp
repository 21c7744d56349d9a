#include "collective/runner.h"

#include <gtest/gtest.h>

#include <numeric>

#include "collective/step_queues.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

namespace vedr::collective {
namespace {

struct Fixture {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::Topology topo;
  net::Network net;

  Fixture()
      : topo(net::make_fat_tree(4, net::NetConfig{})),
        net(engine, net::ShardPlan::single(topo), topo, net::NetConfig{}) {}

  std::vector<NodeId> participants(int n) {
    const auto hosts = topo.hosts();
    return std::vector<NodeId>(hosts.begin(), hosts.begin() + n);
  }
};

TEST(StepQueues, TableOneStates) {
  const auto p = CollectivePlan::ring(0, OpType::kAllGather, {0, 1, 2, 3}, 100);
  StepQueues q(p, 1);
  ASSERT_EQ(q.total_steps(), 3);
  // Step 0 has no dependency: non-waiting.
  EXPECT_EQ(q.state(), WaitState::kNonWaiting);
  q.on_send_complete(0);
  // Step 1 needs the receive from host 0 which has not arrived: waiting.
  EXPECT_EQ(q.state(), WaitState::kWaiting);
  EXPECT_EQ(q.waiting_on(), 0);
  q.on_recv_complete(0);
  // Recv index now ahead of send index: non-waiting (Table I row 2).
  EXPECT_EQ(q.state(), WaitState::kNonWaiting);
  EXPECT_EQ(q.waiting_on(), net::kInvalidNode);
  q.on_send_complete(1);
  EXPECT_EQ(q.state(), WaitState::kWaiting);
  q.on_recv_complete(1);
  q.on_send_complete(2);
  EXPECT_EQ(q.state(), WaitState::kFinished);
}

TEST(StepQueues, SsqRsqContents) {
  const auto p = CollectivePlan::ring(0, OpType::kAllGather, {5, 6, 7}, 100);
  StepQueues q(p, 0);  // flow at host 5
  EXPECT_EQ(q.ssq(), (std::vector<NodeId>{6, 6}));
  EXPECT_EQ(q.rsq(), (std::vector<NodeId>{net::kInvalidNode, 7}));
}

TEST(Runner, AllGatherCompletesAndRecordsTimings) {
  Fixture f;
  auto plan = CollectivePlan::ring(0, OpType::kAllGather, f.participants(4), 256 * 1024);
  CollectiveRunner runner(f.net, std::move(plan));
  sim::Tick finished = sim::kNever;
  runner.set_on_finished([&](sim::Tick t) { finished = t; });
  runner.start(1000);
  f.sim.run();

  ASSERT_TRUE(runner.done());
  EXPECT_EQ(finished, runner.finish_time());
  EXPECT_EQ(runner.start_time(), 1000);
  for (int flow = 0; flow < 4; ++flow) {
    for (int s = 0; s < 3; ++s) {
      const StepRecord& r = runner.record(flow, s);
      EXPECT_NE(r.start_time, sim::kNever);
      EXPECT_GT(r.end_time, r.start_time);
      EXPECT_GT(r.expected_duration, 0);
    }
  }
}

TEST(Runner, DependencyGatingHolds) {
  Fixture f;
  auto plan = CollectivePlan::ring(0, OpType::kAllGather, f.participants(8), 128 * 1024);
  CollectiveRunner runner(f.net, std::move(plan));
  runner.start(0);
  f.sim.run();
  ASSERT_TRUE(runner.done());
  for (int flow = 0; flow < 8; ++flow) {
    for (int s = 1; s < 7; ++s) {
      const StepRecord& r = runner.record(flow, s);
      // A step never starts before its own previous step ended...
      EXPECT_GE(r.start_time, runner.record(flow, s - 1).end_time);
      // ...nor before its data dependency was received.
      ASSERT_GE(r.dep_flow, 0);
      EXPECT_GE(r.start_time, r.dep_ready_time);
      EXPECT_NE(r.dep_ready_time, sim::kNever);
    }
  }
}

TEST(Runner, StepCallbacksFireInOrder) {
  Fixture f;
  auto plan = CollectivePlan::ring(0, OpType::kAllGather, f.participants(4), 64 * 1024);
  CollectiveRunner runner(f.net, std::move(plan));
  int starts = 0, completes = 0;
  sim::Tick last_complete = 0;
  runner.set_on_step_start([&](const StepRecord& r) {
    ++starts;
    EXPECT_NE(r.start_time, sim::kNever);
    EXPECT_EQ(r.end_time, sim::kNever);
  });
  runner.set_on_step_complete([&](const StepRecord& r) {
    ++completes;
    EXPECT_GE(r.end_time, last_complete);
    last_complete = r.end_time;
  });
  runner.start(0);
  f.sim.run();
  EXPECT_EQ(starts, 12);
  EXPECT_EQ(completes, 12);
}

TEST(Runner, HalvingDoublingCompletes) {
  Fixture f;
  auto plan =
      CollectivePlan::halving_doubling(0, OpType::kAllGather, f.participants(8), 128 * 1024);
  CollectiveRunner runner(f.net, std::move(plan));
  runner.start(0);
  f.sim.run();
  ASSERT_TRUE(runner.done());
  // Step volumes double: later steps take longer in isolation.
  const StepRecord& s0 = runner.record(0, 0);
  const StepRecord& s2 = runner.record(0, 2);
  EXPECT_GT(s2.bytes, s0.bytes);
}

TEST(Runner, AllReduceRingCompletes) {
  Fixture f;
  auto plan = CollectivePlan::ring(0, OpType::kAllReduce, f.participants(4), 64 * 1024);
  CollectiveRunner runner(f.net, std::move(plan));
  runner.start(0);
  f.sim.run();
  ASSERT_TRUE(runner.done());
  EXPECT_EQ(runner.completed_records().size(), 4u * 6u);
}

TEST(Runner, LiveWaitingStatesDuringRun) {
  Fixture f;
  const auto participants = f.participants(4);
  auto plan = CollectivePlan::ring(0, OpType::kAllGather, participants, 1024 * 1024);
  CollectiveRunner runner(f.net, std::move(plan));
  runner.start(0);
  // On a healthy symmetric ring receives land before the local send's last
  // ACK, so flows are rarely "waiting"; pause host 1's uplink to force its
  // successor to wait on the delayed data.
  const net::PortRef access = f.topo.peer(participants[1], 0);
  f.sim.schedule_at(50 * sim::kMicrosecond, [&f, access] {
    f.net.deliver_pfc(access.node, access.port, net::Priority::kData, true);
  });
  f.sim.schedule_at(600 * sim::kMicrosecond, [&f, access] {
    f.net.deliver_pfc(access.node, access.port, net::Priority::kData, false);
  });
  bool saw_waiting = false;
  // Poll the queues mid-run.
  for (int i = 1; i <= 50; ++i) {
    f.sim.schedule_at(i * 20 * sim::kMicrosecond, [&] {
      for (int flow = 0; flow < 4; ++flow)
        if (runner.queues(flow).state() == WaitState::kWaiting) saw_waiting = true;
    });
  }
  f.sim.run();
  EXPECT_TRUE(saw_waiting);
  for (int flow = 0; flow < 4; ++flow)
    EXPECT_EQ(runner.queues(flow).state(), WaitState::kFinished);
}

TEST(Runner, RecordsCarryPlanMetadata) {
  Fixture f;
  auto plan = CollectivePlan::ring(0, OpType::kAllGather, f.participants(4), 64 * 1024);
  const auto participants = plan.participants();
  CollectiveRunner runner(f.net, std::move(plan));
  runner.start(0);
  f.sim.run();
  const StepRecord& r = runner.record(2, 1);
  EXPECT_EQ(r.flow_index, 2);
  EXPECT_EQ(r.step, 1);
  EXPECT_EQ(r.src, participants[2]);
  EXPECT_EQ(r.dst, participants[3]);
  EXPECT_EQ(r.wait_src, participants[1]);
  EXPECT_EQ(r.dep_flow, 1);
  EXPECT_EQ(r.dep_step, 0);
  EXPECT_TRUE(runner.plan().contains(r.key));
}

}  // namespace
}  // namespace vedr::collective
