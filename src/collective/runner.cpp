#include "collective/runner.h"

#include "common/check.h"
#include "net/host.h"
#include "obs/trace.h"
#include "sim/shard.h"

namespace vedr::collective {

namespace {

/// Async-span correlation id for a (rank, step) pair — stable across the
/// begin/end pair and unique within a collective.
std::uint64_t step_span_id(int flow, int step) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow)) << 32) |
         static_cast<std::uint32_t>(step);
}

}  // namespace

CollectiveRunner::CollectiveRunner(net::Network& net, CollectivePlan plan)
    : net_(net), plan_(std::move(plan)) {
  net_.set_handler_all(sim::EventKind::kCollectiveStart, &on_start_event);
  const int flows = plan_.num_flows();
  records_.resize(static_cast<std::size_t>(flows));
  recv_done_.resize(static_cast<std::size_t>(flows));
  send_started_.resize(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    const auto& steps = plan_.steps_of_flow(f);
    records_[static_cast<std::size_t>(f)].resize(steps.size());
    recv_done_[static_cast<std::size_t>(f)].assign(steps.size(), false);
    send_started_[static_cast<std::size_t>(f)].assign(steps.size(), false);
    queues_.emplace_back(plan_, f);
    for (const StepSpec& s : steps) {
      StepRecord& r =
          records_[static_cast<std::size_t>(f)][static_cast<std::size_t>(s.step)];
      r.key = plan_.key_for(f, s.step);
      r.flow_index = f;
      r.step = s.step;
      r.bytes = s.bytes;
      r.src = s.src;
      r.dst = s.dst;
      r.wait_src = s.has_dependency()
                       ? plan_.participants()[static_cast<std::size_t>(s.dep_flow)]
                       : net::kInvalidNode;
      r.dep_flow = s.dep_flow;
      r.dep_step = s.dep_step;
      r.expected_duration = net_.ideal_fct(r.key, s.bytes);
    }
  }
}

void CollectiveRunner::start(Tick at) {
  if (net_.num_domains() == 1) {
    net_.sim().schedule_event_at(at, sim::EventKind::kCollectiveStart, {this, 0, 0});
    return;
  }
  VEDR_CHECK_EQ(at, net_.latest_now(),
                "a multi-domain collective starts at the current time, before the engine runs");
  on_start();
}

void CollectiveRunner::on_start_event(const sim::EventPayload& p) {
  static_cast<CollectiveRunner*>(p.obj)->on_start();
}

void CollectiveRunner::on_start() {
  start_time_ = net_.sim().now();
  // Register every expected receive up front; the plan is known before
  // execution (§III-B: steps are predefined prior to execution). Each
  // registration and first send runs scoped to the acting host's domain so
  // multi-domain runs land flow state and tx events on the right simulator.
  for (int f = 0; f < plan_.num_flows(); ++f) {
    for (const StepSpec& s : plan_.steps_of_flow(f)) {
      sim::ShardScope scope(net_.domain_of(s.dst));
      net_.host(s.dst).expect_flow(
          plan_.key_for(f, s.step), s.bytes,
          [this, f, step = s.step](const net::FlowKey&, Tick t) { on_recv_done(f, step, t); });
    }
  }
  for (int f = 0; f < plan_.num_flows(); ++f) {
    const auto& steps = plan_.steps_of_flow(f);
    if (steps.empty()) continue;  // receive-only rank (e.g. broadcast leaf)
    sim::ShardScope scope(net_.domain_of(steps.front().src));
    try_start_send(f, 0);
  }
}

void CollectiveRunner::try_start_send(int flow, int step) {
  const auto& steps = plan_.steps_of_flow(flow);
  if (step >= static_cast<int>(steps.size())) return;
  if (send_started_[static_cast<std::size_t>(flow)][static_cast<std::size_t>(step)]) return;
  const StepSpec& s = steps[static_cast<std::size_t>(step)];
  StepRecord& r = records_[static_cast<std::size_t>(flow)][static_cast<std::size_t>(step)];

  // Gate 1: the flow's own previous step must have completed.
  if (step > 0 && records_[static_cast<std::size_t>(flow)][static_cast<std::size_t>(step - 1)]
                          .end_time == sim::kNever)
    return;
  // Step indices advance monotonically per rank: a step never starts before
  // its predecessor has both started and finished.
  if (step > 0) {
    VEDR_CHECK(send_started_[static_cast<std::size_t>(flow)][static_cast<std::size_t>(step - 1)],
               "rank ", flow, " starting step ", step, " before step ", step - 1, " started");
  }
  // Gate 2: the data dependency must have been received locally.
  if (s.has_dependency() &&
      !recv_done_[static_cast<std::size_t>(s.dep_flow)][static_cast<std::size_t>(s.dep_step)])
    return;

  // Domain confinement: every mutation of this flow's state happens on the
  // domain that owns its source host. Sends are triggered either from that
  // host's own completion path or from a receive at that very host (the
  // dependency's destination is the waiter's source), so this holds for
  // every plan shape the repo builds; the assert enforces it under TSan.
  VEDR_ASSERT(net_.domain_of(s.src) == sim::current_domain(),
              "cross-domain send start would race");
  send_started_[static_cast<std::size_t>(flow)][static_cast<std::size_t>(step)] = true;
  r.start_time = net_.sim().now();
  if (obs::trace_enabled()) {
    obs::async_begin("collective", "step", step_span_id(flow, step), r.start_time,
                     static_cast<std::uint64_t>(s.bytes));
  }
  if (on_step_start_) on_step_start_(r);
  net_.host(s.src).start_flow(r.key, s.bytes, [this, flow, step](const net::FlowKey&, Tick t) {
    on_send_done(flow, step, t);
  });
}

void CollectiveRunner::on_send_done(int flow, int step, Tick t) {
  StepRecord& r = records_[static_cast<std::size_t>(flow)][static_cast<std::size_t>(step)];
  VEDR_CHECK_EQ(r.end_time, sim::kNever, "rank ", flow, " step ", step,
                " completed twice");
  VEDR_CHECK_GE(t, r.start_time, "rank ", flow, " step ", step,
                " completed before it started");
  if (step > 0) {
    VEDR_CHECK_NE(
        records_[static_cast<std::size_t>(flow)][static_cast<std::size_t>(step - 1)].end_time,
        sim::kNever, "rank ", flow, " completed step ", step, " before step ", step - 1);
  }
  r.end_time = t;
  if (obs::trace_enabled()) obs::async_end("collective", "step", step_span_id(flow, step), t);
  queues_[static_cast<std::size_t>(flow)].on_send_complete(step);
  if (step + 1 < static_cast<int>(plan_.steps_of_flow(flow).size())) {
    records_[static_cast<std::size_t>(flow)][static_cast<std::size_t>(step + 1)].prev_done_time =
        t;
  }
  const int completed = 1 + completed_transfers_.fetch_add(1, std::memory_order_relaxed);
  if (on_step_complete_) on_step_complete_(r);
  try_start_send(flow, step + 1);
  if (completed == plan_.total_transfers()) {
    finish_time_ = t;
    if (on_finished_) on_finished_(t);
  }
}

void CollectiveRunner::on_recv_done(int flow, int step, Tick t) {
  recv_done_[static_cast<std::size_t>(flow)][static_cast<std::size_t>(step)] = true;
  // Whoever depends on (flow, step) may now start; also update their
  // SSQ/RSQ indices for waiting-state awareness. Chain algorithms have one
  // dependent; tree algorithms may unblock several flows at once.
  for (const auto& [waiter, wstep] : plan_.dependents_of(flow, step)) {
    records_[static_cast<std::size_t>(waiter)][static_cast<std::size_t>(wstep)]
        .dep_ready_time = t;
    queues_[static_cast<std::size_t>(waiter)].on_recv_complete(wstep - 1);
    try_start_send(waiter, wstep);
  }
}

std::vector<StepRecord> CollectiveRunner::completed_records() const {
  std::vector<StepRecord> out;
  for (const auto& flow : records_)
    for (const auto& r : flow)
      if (r.end_time != sim::kNever) out.push_back(r);
  return out;
}

}  // namespace vedr::collective
