#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ring.h"
#include "net/congestion_control.h"
#include "net/device.h"
#include "net/packet.h"
#include "net/types.h"
#include "sim/event_queue.h"

namespace vedr::net {

class Network;

/// Host NIC model: RDMA RC semantics with line-rate start, per-flow DCQCN
/// pacing, per-packet ACKs (the RTT source for anomaly detection), CNP
/// generation on CE-marked arrivals, and PFC reaction on the access link.
///
/// Transmission is a pull scheduler: when the wire frees up the NIC picks
/// control traffic first, then round-robins across data flows whose pacing
/// clock has matured. This mirrors real NIC QP arbitration and keeps the
/// host queue implicit (no unbounded host-side buffering).
class Host : public Device {
 public:
  using FlowDoneFn = std::function<void(const FlowKey&, Tick)>;
  using RttFn = std::function<void(const FlowKey&, Tick rtt, std::uint32_t seq)>;
  using ControlFn = std::function<void(const Packet&, Tick)>;

  Host(Network& net, NodeId id);

  // --- application-facing API -------------------------------------------

  /// Begins transmitting `bytes` to flow.dst. `on_complete` fires when the
  /// last byte is ACKed.
  void start_flow(const FlowKey& flow, std::int64_t bytes, FlowDoneFn on_complete = {});

  /// Registers the receive side: `on_complete` fires when all `bytes` of
  /// `flow` have arrived here.
  void expect_flow(const FlowKey& flow, std::int64_t bytes, FlowDoneFn on_complete = {});

  /// Sends a control-plane packet (notification / poll). The packet's flow
  /// key determines its ECMP path.
  void send_control(Packet pkt);

  // --- diagnosis hooks ----------------------------------------------------

  /// Called for every ACK with the measured round-trip time.
  void set_rtt_listener(RttFn fn) { rtt_listener_ = std::move(fn); }
  /// Called when a notification or poll packet addressed to this host lands.
  void set_control_listener(ControlFn fn) { control_listener_ = std::move(fn); }

  // --- introspection -------------------------------------------------------

  bool data_paused() const { return data_paused_; }
  std::int64_t bytes_in_flight(const FlowKey& flow) const;
  double flow_rate_gbps(const FlowKey& flow) const;
  bool flow_active(const FlowKey& flow) const { return send_flows_.count(flow) > 0; }
  int active_send_flows() const { return static_cast<int>(send_flows_.size()); }

  void handle_rx_ref(PacketRef ref, PortId in_port) override;

  // --- event-dispatch entry points (net/events.cpp trampolines only) -------

  /// kHostTxDone: the NIC finished serializing slot `ref`; hand it to the
  /// link and pull the next packet.
  void on_tx_done_ref(PacketRef ref);
  /// kHostWakeup: a pacing clock matured.
  void on_wakeup() {
    has_pending_wakeup_ = false;
    kick();
  }

 private:
  struct SendFlow {
    FlowKey key;
    std::int64_t total_bytes = 0;
    std::int64_t sent_bytes = 0;
    std::int64_t acked_bytes = 0;
    std::uint32_t next_seq = 0;
    Tick pacing_clock = 0;  ///< earliest time the next packet may leave
    Tick start_time = 0;
    std::unique_ptr<CongestionControl> cc;  ///< DCQCN or Swift per NetConfig
    FlowDoneFn on_complete;
  };

  struct RecvFlow {
    std::int64_t expected_bytes = -1;  ///< -1: unsolicited (background sink)
    std::int64_t received_bytes = 0;
    Tick last_cnp = sim::kNever;
    Tick first_rx = sim::kNever;
    FlowDoneFn on_complete;
  };

  void kick();
  void transmit(PacketRef ref);
  std::int64_t payload_of(const SendFlow& f, std::uint32_t seq) const;
  void handle_data(const Packet& pkt);
  void handle_ack(const Packet& pkt);

  bool busy_ = false;
  bool data_paused_ = false;
  common::Ring<PacketRef> control_q_;  ///< pooled ACK/CNP/notification slots
  std::unordered_map<FlowKey, SendFlow, FlowKeyHash> send_flows_;
  std::unordered_map<FlowKey, RecvFlow, FlowKeyHash> recv_flows_;
  std::vector<FlowKey> rr_order_;
  std::size_t rr_pos_ = 0;
  sim::EventId pending_wakeup_ = 0;
  bool has_pending_wakeup_ = false;

  RttFn rtt_listener_;
  ControlFn control_listener_;
};

}  // namespace vedr::net
