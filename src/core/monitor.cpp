#include "core/monitor.h"

#include <algorithm>
#include <vector>

#include "net/host.h"
#include "obs/trace.h"
#include "sim/rng.h"

namespace vedr::core {

namespace {

/// Floor of a step's even-spread trigger interval: detections at least this
/// far apart even when the estimated FCT is tiny, so one burst of late ACKs
/// cannot spend the whole budget at once.
constexpr Tick kMinSpacingFloor = 10 * sim::kMicrosecond;

/// Watchdog investigations per step: past this, a permanently deadlocked
/// collective generates no further watchdog traffic.
constexpr int kMaxWatchdogPollsPerStep = 3;

void on_step_poll(const sim::EventPayload& p) {
  static_cast<Monitor*>(p.obj)->watchdog_check(p.a);
}

}  // namespace

Monitor::Monitor(net::Network& net, const collective::CollectivePlan& plan,
                 DomainIngestBuffer& ingest, net::NodeId host, DetectionConfig cfg)
    : net_(net), plan_(plan), ingest_(ingest), host_(host), cfg_(cfg) {
  net_.set_handler_all(sim::EventKind::kStepPoll, &on_step_poll);
  flow_index_ = plan_.flow_of_host(host);
  rtt_hist_ = net_.stats().hist_cell("monitor.rtt_ns");
}

void Monitor::on_step_start(const collective::StepRecord& r) {
  if (r.flow_index != flow_index_) return;
  current_step_ = r.step;
  current_key_ = r.key;

  // Step-grained threshold: recomputed from topology before each step
  // initiation, so path changes (e.g. Halving-and-Doubling partners) get a
  // correct baseline rather than a stale global constant (§III-C2).
  const Tick threshold =
      cfg_.fixed_rtt_threshold > 0
          ? cfg_.fixed_rtt_threshold
          : static_cast<Tick>(static_cast<double>(net_.base_rtt(r.key)) * cfg_.rtt_multiplier);

  trigger_.begin_step(net_.sim().now(), threshold, r.expected_duration,
                      cfg_.detections_per_step + carried_budget_, cfg_.unrestricted,
                      kMinSpacingFloor);
  carried_budget_ = 0;
  last_activity_ = net_.sim().now();
  watchdog_polls_this_step_ = 0;
  arm_watchdog();
  net_.stats().add_counter("monitor.steps_started");
}

void Monitor::arm_watchdog() {
  if (cfg_.stall_timeout <= 0) return;
  const std::uint64_t gen = ++watchdog_generation_;
  net_.sim().schedule_event_in(cfg_.stall_timeout, sim::EventKind::kStepPoll, {this, gen, 0});
}

void Monitor::watchdog_check(std::uint64_t generation) {
  if (generation != watchdog_generation_ || !trigger_.armed()) return;
  const Tick now = net_.sim().now();
  if (now - last_activity_ >= cfg_.stall_timeout) {
    // The flow is fully stalled: no ACKs means RTT-based triggering is
    // blind (the Hawkeye failure mode under persistent PFC, §IV-B); fire an
    // out-of-budget investigation (§V).
    ++watchdog_polls_this_step_;
    ++watchdog_polls_;
    net_.stats().add_counter("monitor.watchdog_polls");
    VEDR_INSTANT("diag", "watchdog_fired", net_.sim().now(),
                 static_cast<std::uint64_t>(current_step_));
    trigger_poll(current_key_);
  }
  // Stop re-arming once the per-step cap is reached so a permanently
  // deadlocked collective cannot generate unbounded watchdog traffic.
  if (watchdog_polls_this_step_ < kMaxWatchdogPollsPerStep) arm_watchdog();
}

void Monitor::on_step_complete(const collective::StepRecord& r) {
  if (r.flow_index != flow_index_) return;
  // Report the step record (5-tuple, volume, timings, wait source) to the
  // analyzer (§III-C1 "performance recording").
  ingest_.add_step_record(r);
  if (cfg_.adaptive_transfer) send_notification(r);
  if (r.step == current_step_) {
    trigger_.disarm();
    ++watchdog_generation_;  // cancel the pending stall check
  }
  net_.stats().add_counter("monitor.steps_completed");
}

void Monitor::send_notification(const collective::StepRecord& r) {
  // Budget transfers, not minting: the remaining opportunities are split
  // across every flow waiting on this step (one waiter for chain
  // algorithms; several for tree broadcasts).
  std::vector<int> waiters;
  for (const auto& [flow, step] : plan_.dependents_of(r.flow_index, r.step)) {
    (void)step;
    if (flow != flow_index_ &&
        std::find(waiters.begin(), waiters.end(), flow) == waiters.end())
      waiters.push_back(flow);
  }
  if (waiters.empty()) return;
  int leftover = trigger_.remaining();
  if (leftover <= 0) return;

  const int base_share = leftover / static_cast<int>(waiters.size());
  int remainder = leftover % static_cast<int>(waiters.size());
  for (int waiter : waiters) {
    int share = base_share + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    if (share <= 0) continue;
    const net::NodeId to = plan_.participants()[static_cast<std::size_t>(waiter)];
    ingest_.on_notification_sent({net_.sim().now(), host_, to, r.step, share});
    net::Packet pkt;
    pkt.type = net::PacketType::kNotification;
    pkt.flow = net::FlowKey{host_, to, 777, 777};
    pkt.meta = net::NotifyInfo{plan_.collective_id(), r.step, share, host_};
    net_.host(host_).send_control(std::move(pkt));

    ++notifications_sent_;
    net_.stats().add_counter("overhead.notify_bytes", net_.config().control_pkt_bytes);
    net_.stats().add_counter("overhead.bandwidth_bytes", net_.config().control_pkt_bytes);
    net_.stats().add_counter("monitor.notifications_sent");
  }
}

void Monitor::on_rtt_sample(const net::FlowKey& flow, Tick rtt, std::uint32_t seq) {
  (void)seq;
  net_.stats().add_counter("monitor.rtt_samples");
  if (obs::metrics_enabled()) rtt_hist_->add(rtt);
  if (current_step_ < 0 || !(flow == current_key_)) return;
  last_activity_ = net_.sim().now();
  if (trigger_.offer(rtt, net_.sim().now())) trigger_poll(flow);
}

void Monitor::trigger_poll(const net::FlowKey& key) {
  const std::uint64_t poll_id = sim::Rng::mix(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(host_)) << 20, ++poll_seq_);
  VEDR_INSTANT("diag", "poll_trigger", net_.sim().now(), poll_id);
  ingest_.on_poll_trigger({net_.sim().now(), host_, key, poll_id, current_step_});
  ingest_.register_poll({poll_id, flow_index_, current_step_});

  net::Packet pkt;
  pkt.type = net::PacketType::kPoll;
  pkt.flow = key;  // same key => same ECMP path as the monitored flow
  net::PollInfo info;
  info.poll_id = poll_id;
  info.origin_host = host_;
  info.collective_id = plan_.collective_id();
  info.step = current_step_;
  info.pfc_hops_left = net_.config().pfc_chase_hops;
  pkt.meta = info;
  net_.host(host_).send_control(std::move(pkt));

  ++polls_sent_;
  net_.stats().add_counter("overhead.poll_bytes", net_.config().control_pkt_bytes);
  net_.stats().add_counter("overhead.bandwidth_bytes", net_.config().control_pkt_bytes);
  net_.stats().add_counter("monitor.polls_sent");
}

void Monitor::on_control_packet(const net::Packet& pkt, Tick now) {
  (void)now;
  if (pkt.type != net::PacketType::kNotification) return;
  const auto& info = std::get<net::NotifyInfo>(pkt.meta);
  budget_received_ += info.transferred_budget;
  net_.stats().add_counter("monitor.budget_received", info.transferred_budget);
  if (trigger_.armed()) {
    trigger_.add_budget(info.transferred_budget);
  } else {
    carried_budget_ += info.transferred_budget;
  }
}

}  // namespace vedr::core
