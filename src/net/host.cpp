#include "net/host.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "net/network.h"
#include "obs/trace.h"

namespace vedr::net {

namespace {
constexpr PortId kUplink = 0;  // hosts have exactly one port
}

Host::Host(Network& net, NodeId id) : Device(net, id, true) {}

void Host::start_flow(const FlowKey& flow, std::int64_t bytes, FlowDoneFn on_complete) {
  if (flow.src != id_) throw std::invalid_argument("start_flow: src mismatch");
  if (bytes <= 0) throw std::invalid_argument("start_flow: bytes must be positive");
  if (send_flows_.count(flow) > 0) throw std::invalid_argument("start_flow: duplicate " + flow.str());

  auto [it, ok] = send_flows_.emplace(flow, SendFlow{});
  (void)ok;
  SendFlow& f = it->second;
  // The congestion-control object lives on the heap: DCQCN's pending timer
  // callbacks capture its address, which therefore must never move.
  f.cc = make_congestion_control(net_.config().cc_algorithm, net_.sim(), net_.dcqcn_params(),
                                 net_.swift_params(), net_.base_rtt(flow));
  f.key = flow;
  f.total_bytes = bytes;
  f.start_time = net_.sim().now();
  f.pacing_clock = net_.sim().now();
  f.on_complete = std::move(on_complete);
  rr_order_.push_back(flow);
  if (obs::trace_enabled()) {
    obs::async_begin("net", "flow", flow.hash(), f.start_time,
                     static_cast<std::uint64_t>(bytes));
  }
  kick();
}

void Host::expect_flow(const FlowKey& flow, std::int64_t bytes, FlowDoneFn on_complete) {
  if (flow.dst != id_) throw std::invalid_argument("expect_flow: dst mismatch");
  RecvFlow& r = recv_flows_[flow];
  r.expected_bytes = bytes;
  r.on_complete = std::move(on_complete);
}

void Host::send_control(Packet pkt) {
  pkt.prio = Priority::kControl;
  if (pkt.size <= 0) pkt.size = net_.config().control_pkt_bytes;
  pkt.ttl = net_.config().initial_ttl;
  pkt.sent_time = net_.sim().now();
  control_q_.push_back(net_.pool().acquire(std::move(pkt)));
  kick();
}

std::int64_t Host::bytes_in_flight(const FlowKey& flow) const {
  auto it = send_flows_.find(flow);
  return it == send_flows_.end() ? 0 : it->second.sent_bytes - it->second.acked_bytes;
}

double Host::flow_rate_gbps(const FlowKey& flow) const {
  auto it = send_flows_.find(flow);
  return it == send_flows_.end() ? 0.0 : it->second.cc->rate_gbps();
}

std::int64_t Host::payload_of(const SendFlow& f, std::uint32_t seq) const {
  const std::int64_t mtu = net_.config().mtu_bytes;
  const std::int64_t full = f.total_bytes / mtu;
  if (static_cast<std::int64_t>(seq) < full) return mtu;
  const std::int64_t rem = f.total_bytes % mtu;
  return rem > 0 ? rem : mtu;
}

void Host::kick() {
  if (busy_) return;
  const Tick now = net_.sim().now();

  // Control class first; never paused by PFC.
  if (!control_q_.empty()) {
    transmit(control_q_.pop_front());
    return;
  }

  if (data_paused_ || rr_order_.empty()) return;

  // Round-robin over flows whose pacing clock has matured.
  Tick earliest = sim::kNever;
  for (std::size_t i = 0; i < rr_order_.size(); ++i) {
    const std::size_t idx = (rr_pos_ + i) % rr_order_.size();
    auto it = send_flows_.find(rr_order_[idx]);
    if (it == send_flows_.end()) continue;
    SendFlow& f = it->second;
    if (f.sent_bytes >= f.total_bytes) continue;
    if (f.pacing_clock <= now) {
      rr_pos_ = (idx + 1) % rr_order_.size();
      const std::int64_t payload = payload_of(f, f.next_seq);
      Packet pkt = make_data(f.key, f.next_seq, static_cast<std::int32_t>(payload) +
                             net_.config().header_bytes, net_.config().initial_ttl);
      pkt.sent_time = now;
      f.next_seq += 1;
      f.sent_bytes += payload;
      // Advance the pacing clock by the packet's serialization time at the
      // flow's current DCQCN rate (line rate initially: no slow start).
      const Tick gap = sim::transmission_delay(pkt.size, f.cc->rate_gbps());
      f.pacing_clock = std::max(f.pacing_clock, now) + gap;
      f.cc->on_bytes_sent(payload);
      transmit(net_.pool().acquire(std::move(pkt)));
      return;
    }
    if (earliest == sim::kNever || f.pacing_clock < earliest) earliest = f.pacing_clock;
  }

  // Nothing eligible: wake when the earliest pacing clock matures.
  if (earliest != sim::kNever) {
    if (has_pending_wakeup_) net_.sim().cancel(pending_wakeup_);
    has_pending_wakeup_ = true;
    pending_wakeup_ =
        net_.sim().schedule_event_at(earliest, sim::EventKind::kHostWakeup, {this, 0, 0});
  }
}

void Host::transmit(PacketRef ref) {
  busy_ = true;
  const auto& link = net_.port_info(id_, kUplink);
  const Tick tx = sim::transmission_delay(net_.pool().at(ref).size, link.gbps);
  net_.sim().schedule_event_in(tx, sim::EventKind::kHostTxDone, {this, ref, 0});
}

void Host::on_tx_done_ref(PacketRef ref) {
  busy_ = false;
  if (auto* t = net_.tracer()) {
    const Packet& pkt = net_.pool().at(ref);
    t->record(TraceEvent{TraceEvent::Kind::kHostTx, net_.sim().now(), id_, kUplink, pkt.type,
                         pkt.flow, pkt.seq, pkt.size});
  }
  net_.deliver_ref(id_, kUplink, ref);
  kick();
}

void Host::handle_rx_ref(PacketRef ref, PortId in_port) {
  (void)in_port;
  // Free the slot before the handlers run: they may acquire new slots (ACKs,
  // CNPs) and must see this one available for reuse.
  const Packet pkt = std::move(net_.pool().at(ref));
  net_.pool().release(ref);
  if (auto* t = net_.tracer())
    t->record(TraceEvent{TraceEvent::Kind::kHostRx, net_.sim().now(), id_, kUplink, pkt.type,
                         pkt.flow, pkt.seq, pkt.size});
  switch (pkt.type) {
    case PacketType::kData:
      handle_data(pkt);
      break;
    case PacketType::kAck:
      handle_ack(pkt);
      break;
    case PacketType::kCnp: {
      auto it = send_flows_.find(reverse(pkt.flow));
      if (it != send_flows_.end()) it->second.cc->on_cnp();
      break;
    }
    case PacketType::kPfcPause: {
      const auto& info = std::get<PauseInfo>(pkt.meta);
      if (info.prio == Priority::kData) {
        const bool was = data_paused_;
        data_paused_ = info.pause;
        if (was && !data_paused_) kick();
      }
      break;
    }
    case PacketType::kNotification:
    case PacketType::kPoll:
      if (control_listener_) control_listener_(pkt, net_.sim().now());
      break;
  }
}

void Host::handle_data(const Packet& pkt) {
  const Tick now = net_.sim().now();
  RecvFlow& r = recv_flows_[pkt.flow];
  const std::int64_t payload = pkt.size - net_.config().header_bytes;
  if (r.received_bytes == 0) r.first_rx = now;
  r.received_bytes += payload;

  // Per-packet ACK carrying the data packet's departure timestamp.
  Packet ack;
  ack.type = PacketType::kAck;
  ack.flow = reverse(pkt.flow);
  ack.size = net_.config().control_pkt_bytes;
  ack.prio = Priority::kControl;
  ack.ttl = net_.config().initial_ttl;
  ack.sent_time = now;
  ack.meta = AckInfo{pkt.seq, pkt.sent_time, pkt.ecn_ce};
  control_q_.push_back(net_.pool().acquire(std::move(ack)));

  // DCQCN notification point: at most one CNP per flow per cnp_interval.
  if (pkt.ecn_ce) {
    const Tick interval = net_.dcqcn_params().cnp_interval;
    if (r.last_cnp == sim::kNever || now - r.last_cnp >= interval) {
      r.last_cnp = now;
      Packet cnp;
      cnp.type = PacketType::kCnp;
      cnp.flow = reverse(pkt.flow);
      cnp.size = net_.config().control_pkt_bytes;
      cnp.prio = Priority::kControl;
      cnp.ttl = net_.config().initial_ttl;
      cnp.sent_time = now;
      control_q_.push_back(net_.pool().acquire(std::move(cnp)));
    }
  }

  if (r.expected_bytes > 0 && r.received_bytes >= r.expected_bytes && r.on_complete) {
    auto fn = std::move(r.on_complete);
    r.on_complete = {};
    fn(pkt.flow, now);
  }
  kick();
}

void Host::handle_ack(const Packet& pkt) {
  const Tick now = net_.sim().now();
  const auto& info = std::get<AckInfo>(pkt.meta);
  const FlowKey data_flow = reverse(pkt.flow);
  auto it = send_flows_.find(data_flow);
  if (it == send_flows_.end()) return;
  SendFlow& f = it->second;

  const Tick rtt = now - info.data_sent_time;
  if (rtt_listener_) rtt_listener_(data_flow, rtt, info.acked_seq);
  f.cc->on_rtt(rtt);

  f.acked_bytes += payload_of(f, info.acked_seq);
  if (f.acked_bytes >= f.total_bytes) {
    f.cc->deactivate();
    if (obs::trace_enabled()) obs::async_end("net", "flow", f.key.hash(), now);
    auto fn = std::move(f.on_complete);
    const FlowKey key = f.key;
    send_flows_.erase(it);
    rr_order_.erase(std::remove(rr_order_.begin(), rr_order_.end(), key), rr_order_.end());
    if (rr_pos_ >= rr_order_.size()) rr_pos_ = 0;
    if (fn) fn(key, now);
  }
}

}  // namespace vedr::net
