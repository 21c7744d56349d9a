#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/tap.h"
#include "net/types.h"
#include "telemetry/records.h"
#include "telemetry/store.h"

namespace vedr::telemetry {

/// Always-on flow/queue accounting for one egress port, mirroring what a
/// telemetry-capable switch data plane records (§III-C3): per-flow counters,
/// queue-ahead matrices (the w(f_i, f_j) inputs), queue depth and PFC pause
/// state. The flow/wait side — the only part whose memory scales with flow
/// count — lives behind a pluggable TelemetryStore (DESIGN.md §13): the
/// exact backend (default, ground truth) or the bounded-memory sketch
/// backend. Queue depth and pause accounting are backend-independent.
class PortTelemetry {
 public:
  explicit PortTelemetry(const TelemetryParams& params = {});

  /// Called when a packet is appended to the data-priority queue.
  void on_enqueue(const FlowKey& flow, std::int64_t bytes, Tick now);

  /// Called when a packet leaves the queue for transmission.
  void on_dequeue(const FlowKey& flow, std::int64_t bytes);

  /// Pause state changes driven by PFC frames from the link peer.
  void on_pause(Tick now);
  void on_resume(Tick now);

  bool paused() const { return paused_; }
  Tick total_pause_time(Tick now) const;
  /// True if the port is paused now or any pause ended within [now-window, now].
  bool paused_within(Tick now, Tick window) const;

  std::int64_t qdepth_bytes() const { return qdepth_bytes_; }
  std::int64_t qdepth_pkts() const { return qdepth_pkts_; }

  /// Snapshot for a poll: flows active since `since`, their pairwise wait
  /// weights, and pause intervals overlapping [since, now].
  PortReport snapshot(PortRef self, Tick now, Tick since) const;

  /// Reclaims store state idle since before now - retention (and pause
  /// events that ended before then). Never changes a snapshot whose window
  /// starts at or after the cutoff; callers poll-window close, so retention
  /// must stay comfortably above the poll window.
  void prune(Tick now, Tick retention);

  /// Current store memory priced by the StateCosts model, plus this port's
  /// pause-event log.
  std::int64_t state_bytes() const;

  const TelemetryStore& store() const { return *store_; }
  TelemetryBackend backend() const { return store_->backend(); }

 private:
  std::unique_ptr<TelemetryStore> store_;

  std::int64_t qdepth_bytes_ = 0;
  std::int64_t qdepth_pkts_ = 0;

  bool paused_ = false;
  Tick paused_since_ = sim::kNever;
  Tick accumulated_pause_ = 0;
  std::vector<PauseEvent> pause_events_;
};

/// Whole-switch recorder: per-egress-port telemetry plus the ingress->egress
/// byte meters and the pause-cause log this switch generated.
class SwitchTelemetry {
 public:
  SwitchTelemetry(NodeId switch_id, int num_ports, const TelemetryParams& params = {});

  PortTelemetry& port(PortId p) { return ports_.at(static_cast<std::size_t>(p)); }
  const PortTelemetry& port(PortId p) const { return ports_.at(static_cast<std::size_t>(p)); }
  int num_ports() const { return static_cast<int>(ports_.size()); }
  TelemetryBackend backend() const { return params_.backend; }

  void on_forward(PortId in_port, PortId out_port, std::int64_t bytes) {
    if (in_port == net::kInvalidPort) return;  // locally originated
    meter_[static_cast<std::size_t>(in_port)][static_cast<std::size_t>(out_port)] += bytes;
  }

  std::int64_t meter(PortId in_port, PortId out_port) const {
    return meter_.at(static_cast<std::size_t>(in_port)).at(static_cast<std::size_t>(out_port));
  }

  void record_pause_cause(PauseCauseReport cause) {
    if (tap_ != nullptr) tap_->on_pause_cause({switch_id_, cause});
    causes_.push_back(std::move(cause));
  }

  /// Observation-only trace tap: sees every pause cause and TTL drop as it
  /// is recorded, including ones no poll window ever covers.
  void set_tap(TelemetryTap* tap) { tap_ = tap; }

  /// TTL expiry observed for `flow` whose next hop would have been `egress`.
  void record_ttl_drop(const FlowKey& flow, PortId egress, Tick now);
  /// Drops whose last occurrence is within [since, now].
  std::vector<DropEntry> drops_since(Tick since) const;

  /// Pause causes emitted on `ingress` within [since, now].
  std::vector<PauseCauseReport> causes_for(PortId ingress, Tick since) const;
  const std::vector<PauseCauseReport>& all_causes() const { return causes_; }

  /// Full port snapshot including meters toward this egress port.
  PortReport port_snapshot(PortId egress, Tick now, Tick since) const;

  /// Prunes every port's store (satellite of DESIGN.md §13: idle-flow wait
  /// entries in long-lived sessions must not leak).
  void prune(Tick now, Tick retention);

  /// Total store memory across every egress port (StateCosts model) — the
  /// per-switch telemetry memory gauge.
  std::int64_t state_bytes() const;

  NodeId switch_id() const { return switch_id_; }

 private:
  NodeId switch_id_;
  TelemetryParams params_;
  std::vector<PortTelemetry> ports_;
  std::vector<std::vector<std::int64_t>> meter_;  // [in][out] bytes
  std::vector<PauseCauseReport> causes_;
  std::unordered_map<FlowKey, DropEntry, net::FlowKeyHash> drops_;
  TelemetryTap* tap_ = nullptr;
};

}  // namespace vedr::telemetry
