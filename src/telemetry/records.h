#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/types.h"
#include "sim/time.h"

namespace vedr::telemetry {

using net::FlowKey;
using net::NodeId;
using net::PortId;
using net::PortRef;
using sim::Tick;

/// Wire-size model for overhead accounting (Fig. 10a: "size of telemetry
/// packets collected"). Sizes follow common INT/telemetry encodings.
struct WireCosts {
  static constexpr std::int64_t kReportHeader = 16;
  static constexpr std::int64_t kFlowEntry = 32;    ///< 5-tuple + counters
  static constexpr std::int64_t kWaitEntry = 24;    ///< flow pair + weight
  static constexpr std::int64_t kMeterEntry = 16;   ///< port + bytes
  static constexpr std::int64_t kPauseEvent = 24;   ///< interval + peer
  static constexpr std::int64_t kPauseCause = 24;   ///< header per cause
  static constexpr std::int64_t kCauseContribution = 12;
  static constexpr std::int64_t kPortHeader = 32;   ///< qdepth, pause state...
  static constexpr std::int64_t kDropEntry = 24;    ///< flow + port + count
};

/// Per-flow counters observed at one egress port.
struct FlowEntry {
  FlowKey flow;
  std::int64_t pkts = 0;
  std::int64_t bytes = 0;
  Tick first_seen = sim::kNever;
  Tick last_seen = sim::kNever;
};

/// w(f_i, f_j): cumulative count of f_j packets that were ahead of f_i
/// packets at enqueue time (paper §III-D1, edge type e(f, p)).
struct WaitEntry {
  FlowKey waiter;  ///< f_i
  FlowKey ahead;   ///< f_j
  std::int64_t weight = 0;
};

/// Bytes forwarded from ingress `in_port` into the reported egress port —
/// the meter(p_i, p_j) input for PFC edge weights e(p_i, p_j).
struct MeterEntry {
  PortId in_port = net::kInvalidPort;
  std::int64_t bytes = 0;
};

/// Interval during which the reported egress port was paused by its peer.
struct PauseEvent {
  Tick start = sim::kNever;
  Tick end = sim::kNever;  ///< kNever while still paused
};

/// Snapshot of one egress port taken when a poll packet traverses a switch.
struct PortReport {
  PortRef port;               ///< egress (switch, port)
  Tick poll_time = 0;
  std::int64_t qdepth_bytes = 0;
  std::int64_t qdepth_pkts = 0;
  bool currently_paused = false;
  Tick total_pause_time = 0;
  std::vector<FlowEntry> flows;
  std::vector<WaitEntry> waits;
  std::vector<MeterEntry> meters;
  std::vector<PauseEvent> pauses;
  /// Sketch lane only: the producing store evicted state, so `flows`/`waits`
  /// may omit entries an exact store would have reported (top-k truncation).
  /// Not serialized in .vtrc traces — recordings are always exact-lane.
  bool truncated = false;

  /// Whether this snapshot carries any PFC pause evidence: the diagnosis
  /// plane latches this per port, so a later quiet snapshot cannot erase it.
  bool paused_evidence() const { return currently_paused || !pauses.empty(); }

  std::int64_t wire_size() const {
    return WireCosts::kPortHeader +
           static_cast<std::int64_t>(flows.size()) * WireCosts::kFlowEntry +
           static_cast<std::int64_t>(waits.size()) * WireCosts::kWaitEntry +
           static_cast<std::int64_t>(meters.size()) * WireCosts::kMeterEntry +
           static_cast<std::int64_t>(pauses.size()) * WireCosts::kPauseEvent;
  }
};

/// Record of this switch *sending* a PAUSE on one of its ports (which faces
/// the upstream device). `contributions` snapshots how many bytes each local
/// egress queue held from that ingress at pause time; `injected` marks PFC
/// storm injection rather than genuine buffer pressure.
struct PauseCauseReport {
  PortRef ingress_port;  ///< (this switch, port facing the paused upstream)
  Tick time = 0;
  bool injected = false;
  std::vector<std::pair<PortId, std::int64_t>> contributions;  ///< (egress, bytes)

  std::int64_t wire_size() const {
    return WireCosts::kPauseCause +
           static_cast<std::int64_t>(contributions.size()) * WireCosts::kCauseContribution;
  }
};

/// TTL-expiry drops observed at a switch: the tell-tale of a forwarding
/// loop (§II-B anomaly type 2). `port` is the egress the packet would have
/// taken next.
struct DropEntry {
  FlowKey flow;
  PortRef port;
  std::int64_t count = 0;
  Tick last_drop = sim::kNever;
};

/// One switch's response to a poll: port snapshots plus pause-cause records
/// and recent TTL drops.
struct SwitchReport {
  NodeId switch_id = net::kInvalidNode;
  std::uint64_t poll_id = 0;
  Tick time = 0;
  /// Which telemetry lane produced the port snapshots (the analyzer latches
  /// this into the Diagnosis so a verdict names its evidence quality). Not
  /// serialized: .vtrc traces always carry the exact-lane ground truth.
  net::TelemetryBackend backend = net::TelemetryBackend::kExact;
  std::vector<PortReport> ports;
  std::vector<PauseCauseReport> causes;
  std::vector<DropEntry> drops;

  std::int64_t wire_size() const {
    std::int64_t s = WireCosts::kReportHeader;
    for (const auto& p : ports) s += p.wire_size();
    for (const auto& c : causes) s += c.wire_size();
    s += static_cast<std::int64_t>(drops.size()) * WireCosts::kDropEntry;
    return s;
  }
};

/// Consumer of a domain's switch reports: its core::DomainIngestBuffer,
/// which stages them for the analyzer of whichever system runs.
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual void on_switch_report(const SwitchReport& report) = 0;
};

}  // namespace vedr::telemetry
