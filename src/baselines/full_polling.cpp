#include "baselines/full_polling.h"

#include "net/switch.h"

namespace vedr::baselines {

namespace {

void on_poll_sweep(const sim::EventPayload& p) {
  static_cast<FullPolling*>(p.obj)->sweep();
}

}  // namespace

FullPolling::FullPolling(net::Network& net, const collective::CollectivePlan& plan,
                         sim::Tick interval)
    : net_(net), analyzer_(&net.topology(), nullptr), interval_(interval) {
  net_.sim().set_handler(sim::EventKind::kPollSweep, &on_poll_sweep);
  analyzer_.set_cc_flows(plan.flow_keys());
  analyzer_.set_stats(&net_.stats());
}

void FullPolling::start(sim::Tick until) {
  until_ = until;
  net_.sim().schedule_event_in(interval_, sim::EventKind::kPollSweep, {this, 0, 0});
}

void FullPolling::sweep() {
  const sim::Tick now = net_.sim().now();
  if (now > until_) return;
  ++sweeps_;
  const sim::Tick since = now - interval_;  // deltas: only the last period

  for (net::NodeId sw_id : net_.switches()) {
    net::Switch& sw = net_.switch_at(sw_id);
    telemetry::SwitchReport report;
    report.switch_id = sw_id;
    report.poll_id = ++sweep_seq_;
    report.time = now;
    for (net::PortId p = 0; p < sw.num_ports(); ++p) {
      auto snap = sw.telem().port_snapshot(p, now, since);
      // Idle ports still cost a header on the wire; ports with activity
      // carry their full entry lists.
      report.ports.push_back(std::move(snap));
    }
    for (const auto& cause : sw.telem().all_causes())
      if (cause.time >= since) report.causes.push_back(cause);
    report.drops = sw.telem().drops_since(since);

    const std::int64_t size = report.wire_size();
    net_.stats().add_counter("overhead.telemetry_bytes", size);
    net_.stats().add_counter("overhead.bandwidth_bytes", size);
    net_.stats().add_counter("overhead.report_count");
    net_.sim().schedule_in(net_.config().controller_delay,
                           [this, r = std::move(report)] { analyzer_.on_switch_report(r); });
  }
  net_.sim().schedule_event_in(interval_, sim::EventKind::kPollSweep, {this, 0, 0});
}

}  // namespace vedr::baselines
