#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/packet.h"
#include "net/types.h"

namespace vedr::net {

/// A packet event, pcap-style but at the model's granularity.
struct TraceEvent {
  enum class Kind : std::uint8_t { kHostTx, kHostRx, kSwitchEnqueue, kSwitchDequeue, kDrop };

  Kind kind = Kind::kHostTx;
  Tick time = 0;
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;
  PacketType pkt_type = PacketType::kData;
  FlowKey flow;
  std::uint32_t seq = 0;
  std::int32_t size = 0;
};

/// Packet-event tap: hands every host tx/rx and switch enqueue/dequeue/drop
/// of the domain it is attached to (Network::set_domain_tracer) to a sink,
/// in the domain's event order. Keeps nothing itself; zero cost when
/// detached.
class PacketTracer {
 public:
  using Sink = std::function<void(const TraceEvent&)>;

  void set_sink(Sink sink) { sink_ = std::move(sink); }
  void record(const TraceEvent& ev) {
    if (sink_) sink_(ev);
  }

 private:
  Sink sink_;
};

}  // namespace vedr::net
