#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/time.h"

namespace vedr::net {

using sim::Tick;

/// Index of a device (host or switch) inside a Network.
using NodeId = std::int32_t;
/// Index of a port within one device.
using PortId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr PortId kInvalidPort = -1;

/// Two service classes: control traffic (ACK/CNP/notifications/polls) rides
/// a strict-priority lossless class that PFC never pauses; data rides the
/// RDMA class subject to PFC and ECN.
enum class Priority : std::uint8_t { kControl = 0, kData = 1 };
inline constexpr int kNumPriorities = 2;

inline constexpr int index_of(Priority p) { return static_cast<int>(p); }

/// RDMA flow identity. Addresses are NodeIds (one IP per host); the port
/// pair disambiguates flow segments (each collective step transfer gets its
/// own segment so telemetry maps back to waiting-graph vertices).
struct FlowKey {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
  /// Field-wise total order: gives containers and reports a canonical flow
  /// ordering that never depends on hash-table iteration order.
  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;

  std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto step = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
    };
    step(static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)));
    step(static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)));
    step(sport);
    step(dport);
    return h;
  }

  bool valid() const { return src != kInvalidNode && dst != kInvalidNode; }

  std::string str() const {
    return "f(" + std::to_string(src) + ":" + std::to_string(sport) + "->" +
           std::to_string(dst) + ":" + std::to_string(dport) + ")";
  }
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const { return static_cast<std::size_t>(k.hash()); }
};

/// A (device, port) pair — the unit PFC pauses and the vertex type P in the
/// provenance graph.
struct PortRef {
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;

  friend bool operator==(const PortRef&, const PortRef&) = default;
  friend auto operator<=>(const PortRef&, const PortRef&) = default;

  bool valid() const { return node != kInvalidNode && port != kInvalidPort; }

  std::string str() const {
    return "p(" + std::to_string(node) + "." + std::to_string(port) + ")";
  }
};

struct PortRefHash {
  std::size_t operator()(const PortRef& p) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.node)) << 32) |
        static_cast<std::uint32_t>(p.port));
  }
};

/// Which congestion control the host NICs run (§I: DCQCN or Swift).
enum class CcAlgorithm : std::uint8_t { kDcqcn, kSwift };

/// Which telemetry store backs each egress port's flow/queue-ahead
/// accounting (DESIGN.md §13). kExact keeps per-flow counters and the full
/// pairwise wait matrix (ground truth, the default); kSketch bounds memory
/// with count-min summaries, a top-k heavy-hitter heap and a fixed-capacity
/// pairwise-wait table.
enum class TelemetryBackend : std::uint8_t { kExact = 0, kSketch = 1 };

/// Sketch-lane sizing knobs (ignored by the exact backend). Not part of the
/// .vtrc wire format: traces always record the exact-lane ground truth and
/// any sketch compression is applied by the consumer.
struct TelemetryParams {
  TelemetryBackend backend = TelemetryBackend::kExact;
  std::int32_t sketch_width = 512;  ///< count-min counters per row
  std::int32_t sketch_depth = 4;    ///< count-min rows (independent hashes)
  std::int32_t topk = 32;           ///< heavy-hitter heap capacity (flows per port report)

  /// Pairwise-wait table slots per heavy hitter: room for each reported flow
  /// to wait behind several others, so the table scales with topk.
  static constexpr std::int32_t kPairsPerTopk = 8;
  /// Pairwise-wait table capacity.
  std::int32_t pair_cap() const { return kPairsPerTopk * topk; }
};

/// Static link/fabric parameters shared across the simulation.
struct NetConfig {
  CcAlgorithm cc_algorithm = CcAlgorithm::kDcqcn;
  double link_gbps = 100.0;         ///< per-link bandwidth
  Tick link_delay = 2 * sim::kMicrosecond;  ///< propagation delay
  std::int32_t mtu_bytes = 4096;    ///< data packet payload size
  std::int32_t header_bytes = 64;   ///< per-packet wire overhead
  std::int32_t control_pkt_bytes = 64;  ///< ACK/CNP/PFC/notify/poll size

  // PFC thresholds: per-(ingress port, priority) byte accounting.
  std::int64_t pfc_xoff_bytes = 200 * 1024;
  std::int64_t pfc_xon_bytes = 160 * 1024;

  // ECN / RED marking on the data-priority egress queue.
  std::int64_t ecn_kmin_bytes = 40 * 1024;
  std::int64_t ecn_kmax_bytes = 160 * 1024;
  double ecn_pmax = 0.2;

  /// Per-priority egress queue capacity; PFC should keep data queues below
  /// this, drops are counted as model violations.
  std::int64_t queue_cap_bytes = 8 * 1024 * 1024;

  std::uint8_t initial_ttl = 64;

  // Diagnosis-plane knobs.
  Tick telemetry_window = 5 * sim::kMillisecond;  ///< "recent" horizon for poll snapshots
  Tick controller_delay = 20 * sim::kMicrosecond; ///< switch CPU -> analyzer latency
  int pfc_chase_hops = 8;                         ///< max PFC spreading-path depth per poll

  /// Telemetry store selection + sketch sizing per egress port.
  TelemetryParams telemetry;
  /// Exact-lane state idle longer than this is pruned when a poll closes its
  /// window. Must be well above telemetry_window (windowed snapshots never
  /// see pruned entries); kept far above any scenario horizon so ground-truth
  /// full-history reads — and therefore the determinism digests — are
  /// untouched in the evaluation runs, while long-lived sessions stay bounded.
  Tick telemetry_retention = 320 * sim::kMillisecond;
};

}  // namespace vedr::net
