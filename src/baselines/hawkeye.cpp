#include "baselines/hawkeye.h"

#include <algorithm>

#include "net/host.h"
#include "sim/rng.h"

namespace vedr::baselines {

Hawkeye::Hawkeye(net::Network& net, const collective::CollectivePlan& plan, HawkeyeConfig cfg,
                 core::TraceTap* trace)
    : net_(net),
      analyzer_(&net.topology(), nullptr),
      buffers_(core::DomainIngestBuffer::install(net, trace)),
      triggers_(plan.participants().size()) {
  // Hawkeye has no collective awareness: the analyzer gets the monitored
  // flow set but no plan (no waiting graph, no per-step grouping).
  Tick max_rtt = 0, min_rtt = 0;
  bool first = true;
  for (int f = 0; f < plan.num_flows(); ++f) {
    for (const auto& s : plan.steps_of_flow(f)) {
      const Tick rtt = net_.base_rtt(plan.key_for(f, s.step));
      if (first) {
        max_rtt = min_rtt = rtt;
        first = false;
      } else {
        max_rtt = std::max(max_rtt, rtt);
        min_rtt = std::min(min_rtt, rtt);
      }
    }
  }
  analyzer_.set_cc_flows(plan.flow_keys());
  analyzer_.set_stats(&net_.stats());
  threshold_ =
      static_cast<Tick>(static_cast<double>(cfg.use_max_rtt ? max_rtt : min_rtt) * kRttMultiplier);

  for (std::size_t i = 0; i < triggers_.size(); ++i) {
    const net::NodeId host = plan.participants()[i];
    net_.host(host).set_rtt_listener(
        [this, host, &t = triggers_[i]](const net::FlowKey& flow, Tick rtt, std::uint32_t) {
          on_rtt(host, t, flow, rtt);
        });
  }
}

Analyzer& Hawkeye::analyzer() {
  core::DomainIngestBuffer::replay_into(
      buffers_, analyzer_,
      [this](const telemetry::SwitchReport& r, Tick arrival) { return retain(r, arrival); });
  return analyzer_;
}

int Hawkeye::polls_sent() const {
  int n = 0;
  for (const Trigger& t : triggers_) n += static_cast<int>(t.polls);
  return n;
}

void Hawkeye::on_rtt(net::NodeId host, Trigger& t, const net::FlowKey& flow, Tick rtt) {
  if (rtt <= threshold_) return;
  const Tick now = net_.sim().now();
  if (t.last != sim::kNever && now - t.last < kMinTriggerGap) return;
  t.last = now;

  net::Packet pkt;
  pkt.type = net::PacketType::kPoll;
  pkt.flow = flow;
  net::PollInfo info;
  info.poll_id = sim::Rng::mix(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(host)) << 24, ++t.polls);
  info.origin_host = host;
  info.pfc_hops_left = net_.config().pfc_chase_hops;
  pkt.meta = info;
  net_.host(host).send_control(std::move(pkt));
  net_.stats().add_counter("overhead.poll_bytes", net_.config().control_pkt_bytes);
  net_.stats().add_counter("overhead.bandwidth_bytes", net_.config().control_pkt_bytes);
}

bool Hawkeye::retain(const telemetry::SwitchReport& report, Tick arrival) {
  // Hawkeye's source keeps one detection's data batch per retention window
  // to bound processing; reports from other triggers inside the window are
  // discarded, valid or not (§IV-B). A batch is identified by its poll id,
  // so the kept detection's multi-switch reports all survive.
  if (last_kept_ == sim::kNever || arrival - last_kept_ >= kRetention) {
    last_kept_ = arrival;
    kept_poll_ = report.poll_id;
  }
  if (report.poll_id != kept_poll_) {
    ++reports_dropped_;
    return false;
  }
  ++reports_kept_;
  return true;
}

}  // namespace vedr::baselines
