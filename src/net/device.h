#pragma once

#include "net/packet_pool.h"
#include "net/types.h"

namespace vedr::net {

class Network;

/// A node in the fabric (host NIC or switch). Devices receive packets from
/// the Network's link layer and emit packets through Network::deliver_ref.
class Device {
 public:
  Device(Network& net, NodeId id, bool is_host) : net_(net), id_(id), is_host_(is_host) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// A packet has fully arrived on `in_port`. It lives in the domain's
  /// packet pool and the callee owns slot `ref`: it must release it, possibly
  /// by forwarding it (switches keep forwarded packets in their slots).
  virtual void handle_rx_ref(PacketRef ref, PortId in_port) = 0;

  NodeId id() const { return id_; }
  bool is_host() const { return is_host_; }

 protected:
  Network& net_;
  NodeId id_;
  bool is_host_;
};

}  // namespace vedr::net
