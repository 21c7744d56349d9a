#include "baselines/hawkeye.h"

#include <algorithm>

#include "net/host.h"
#include "sim/rng.h"

namespace vedr::baselines {

Hawkeye::Hawkeye(net::Network& net, const collective::CollectivePlan& plan, HawkeyeConfig cfg)
    : net_(net), plan_(plan), cfg_(cfg), analyzer_(&net.topology(), nullptr) {
  // Hawkeye has no collective awareness: the analyzer gets the monitored
  // flow set but no plan (no waiting graph, no per-step grouping).
  Tick max_rtt = 0, min_rtt = 0;
  bool first = true;
  for (int f = 0; f < plan_.num_flows(); ++f) {
    for (const auto& s : plan_.steps_of_flow(f)) {
      const Tick rtt = net_.base_rtt(plan_.key_for(f, s.step));
      if (first) {
        max_rtt = min_rtt = rtt;
        first = false;
      } else {
        max_rtt = std::max(max_rtt, rtt);
        min_rtt = std::min(min_rtt, rtt);
      }
    }
  }
  analyzer_.set_cc_flows(plan_.flow_keys());
  analyzer_.set_stats(&net_.stats());
  threshold_ = static_cast<Tick>(static_cast<double>(cfg_.use_max_rtt ? max_rtt : min_rtt) *
                                 cfg_.rtt_multiplier);

  net_.set_report_sink(this);
  for (net::NodeId host : plan_.participants()) {
    net_.host(host).set_rtt_listener(
        [this, host](const net::FlowKey& flow, Tick rtt, std::uint32_t) {
          on_rtt(host, flow, rtt);
        });
  }
}

void Hawkeye::on_rtt(net::NodeId host, const net::FlowKey& flow, Tick rtt) {
  if (rtt <= threshold_) return;
  const Tick now = net_.sim().now();
  auto it = last_trigger_.find(host);
  if (it != last_trigger_.end() && now - it->second < cfg_.min_trigger_gap) return;
  last_trigger_[host] = now;
  trigger_poll(host, flow);
}

void Hawkeye::trigger_poll(net::NodeId host, const net::FlowKey& flow) {
  net::Packet pkt;
  pkt.type = net::PacketType::kPoll;
  pkt.flow = flow;
  net::PollInfo info;
  info.poll_id = sim::Rng::mix(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(host)) << 24, ++poll_seq_);
  info.origin_host = host;
  info.pfc_hops_left = net_.config().pfc_chase_hops;
  pkt.meta = info;
  net_.host(host).send_control(std::move(pkt));

  ++polls_sent_;
  net_.stats().add_counter("overhead.poll_bytes", net_.config().control_pkt_bytes);
  net_.stats().add_counter("overhead.bandwidth_bytes", net_.config().control_pkt_bytes);
}

void Hawkeye::on_switch_report(const telemetry::SwitchReport& report) {
  const Tick now = net_.sim().now();
  // Hawkeye's source keeps one detection's data batch per retention window
  // to bound processing; reports from other triggers inside the window are
  // discarded, valid or not (§IV-B). A batch is identified by its poll id,
  // so the kept detection's multi-switch reports all survive.
  if (last_kept_ == sim::kNever || now - last_kept_ >= cfg_.retention) {
    last_kept_ = now;
    kept_poll_ = report.poll_id;
  }
  if (report.poll_id != kept_poll_) {
    ++reports_dropped_;
    return;
  }
  ++reports_kept_;
  analyzer_.on_switch_report(report);
}

}  // namespace vedr::baselines
