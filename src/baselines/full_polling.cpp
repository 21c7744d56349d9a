#include "baselines/full_polling.h"

#include "net/switch.h"

namespace vedr::baselines {

namespace {

void on_poll_sweep(const sim::EventPayload& p) {
  static_cast<FullPolling*>(p.obj)->sweep(static_cast<int>(p.a));
}

}  // namespace

FullPolling::FullPolling(net::Network& net, const collective::CollectivePlan& plan,
                         core::TraceTap* trace)
    : net_(net),
      analyzer_(&net.topology(), nullptr),
      buffers_(core::DomainIngestBuffer::install(net, trace)),
      switches_(net.switches()),
      rounds_(static_cast<std::size_t>(net.num_domains()), 0) {
  net_.set_handler_all(sim::EventKind::kPollSweep, &on_poll_sweep);
  analyzer_.set_cc_flows(plan.flow_keys());
  analyzer_.set_stats(&net_.stats());
}

core::Analyzer& FullPolling::analyzer() {
  core::DomainIngestBuffer::replay_into(buffers_, analyzer_);
  return analyzer_;
}

void FullPolling::start(sim::Tick until) {
  until_ = until;
  for (int d = 0; d < net_.num_domains(); ++d)
    net_.domain_sim(d).schedule_event_in(kInterval, sim::EventKind::kPollSweep,
                                         {this, static_cast<std::uint64_t>(d), 0});
}

void FullPolling::sweep(int domain) {
  const sim::Tick now = net_.sim().now();
  if (now > until_) return;
  const std::size_t round = rounds_[static_cast<std::size_t>(domain)]++;
  const sim::Tick since = now - kInterval;  // deltas: only the last period

  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (net_.domain_of(switches_[i]) != domain) continue;
    net::Switch& sw = net_.switch_at(switches_[i]);
    telemetry::SwitchReport report;
    report.switch_id = switches_[i];
    // Numbered as one fabric-wide sweep would number them, with no shared
    // counter.
    report.poll_id = round * switches_.size() + i + 1;
    report.time = now;
    for (net::PortId p = 0; p < sw.num_ports(); ++p) {
      // Idle ports still cost a header on the wire; ports with activity
      // carry their full entry lists.
      report.ports.push_back(sw.telem().port_snapshot(p, now, since));
    }
    for (const auto& cause : sw.telem().all_causes())
      if (cause.time >= since) report.causes.push_back(cause);
    report.drops = sw.telem().drops_since(since);
    sw.emit_report(std::move(report));
  }
  net_.sim().schedule_event_in(kInterval, sim::EventKind::kPollSweep,
                               {this, static_cast<std::uint64_t>(domain), 0});
}

}  // namespace vedr::baselines
