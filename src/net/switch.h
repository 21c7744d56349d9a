#pragma once

#include <cstdint>
#include <random>
#include <unordered_set>
#include <vector>

#include "common/ring.h"
#include "net/device.h"
#include "net/packet.h"
#include "net/types.h"
#include "obs/histogram.h"
#include "telemetry/recorder.h"

namespace vedr::net {

class Network;

/// Output-queued switch with two strict priorities, PFC (per-ingress byte
/// accounting with XOFF/XON hysteresis and pause-cause logging), RED/ECN
/// marking on the data class, always-on flow/port telemetry, and the
/// polling-query data plane used by the diagnosis systems: path polls
/// snapshot the congested egress, chase polls walk the PFC spreading path
/// (§III-C3).
class Switch : public Device {
 public:
  Switch(Network& net, NodeId id, int num_ports);

  void handle_rx_ref(PacketRef ref, PortId in_port) override;

  // --- event-dispatch entry points (net/events.cpp trampolines only) -------

  /// kSwitchTxDone: egress `out` finished serializing slot `ref`.
  void on_tx_done_ref(PacketRef ref, PortId out);
  /// kPfcResume: an injected pause on `port` expired.
  void on_forced_pause_expired(PortId port);

  // --- anomaly injection ---------------------------------------------------

  /// PFC storm injection: this switch emits PAUSE frames on `port`
  /// (halting its upstream peer) for `duration`, independent of buffer
  /// state — modeling the hardware-bug storms of §II-B.
  void force_pause(PortId port, Tick duration);

  /// Stamps `report` with this switch's telemetry backend, counts it under
  /// `overhead.*`, and sends it to the domain's report sink after the
  /// controller delay: every poll report's path, and Full Polling's.
  void emit_report(telemetry::SwitchReport report);

  // --- introspection ---------------------------------------------------------

  /// Deep invariant audit: every per-priority egress byte counter must equal
  /// the sum of its queued packet sizes, per-(egress, ingress) attribution
  /// must sum to the ingress PFC counter, and nothing may ever be negative
  /// or above the configured cap. O(total queued packets); runs automatically
  /// via VEDR_AUDIT when the InvariantAuditor is enabled, and directly from
  /// tests. Fails a VEDR_CHECK on corruption.
  void audit_invariants() const;

  const telemetry::SwitchTelemetry& telem() const { return telem_; }
  telemetry::SwitchTelemetry& telem() { return telem_; }
  std::int64_t queue_bytes(PortId port, Priority prio) const {
    return egress_.at(static_cast<std::size_t>(port)).bytes[index_of(prio)];
  }
  bool sending_pause_on(PortId port) const {
    return pause_sig_.at(static_cast<std::size_t>(port)).sent_pause;
  }
  std::int64_t drops() const { return drops_; }
  std::int64_t ttl_drops() const { return ttl_drops_; }
  int num_ports() const { return static_cast<int>(egress_.size()); }

 private:
  /// One queued frame: the packet stays in the Network's pool; the queue
  /// holds only its slot plus the ingress it is attributed to for PFC.
  struct Queued {
    PacketRef ref = 0;
    PortId in_port = kInvalidPort;
  };
  struct Egress {
    common::Ring<Queued> q[kNumPriorities];
    std::int64_t bytes[kNumPriorities] = {0, 0};
    bool paused_data = false;  ///< peer paused our data class
    bool busy = false;
  };
  /// Send-side PFC state for one port: whether we are currently pausing the
  /// upstream device on that link.
  struct PauseSignal {
    std::int64_t ingress_bytes = 0;  ///< queued data bytes that arrived here
    bool congestion = false;
    bool forced = false;
    bool sent_pause = false;
  };

  void forward_ref(PacketRef ref, PortId in_port);
  void enqueue_ref(PortId out, PacketRef ref, PortId in_port);
  void kick(PortId out);
  void finish_tx(PortId out);
  void update_pause_signal(PortId in_port);
  void handle_pfc(const Packet& pkt, PortId in_port);
  void handle_poll(Packet pkt, PortId in_port);
  void maybe_chase(PortId egress, const PollInfo& info);
  /// Post-poll collection-plane upkeep: prune aged telemetry state (digest
  /// safe — see NetConfig::telemetry_retention) and refresh the fabric-wide
  /// `telemetry.state_bytes` gauge with this switch's delta.
  void telemetry_housekeeping(Tick now);
  bool poll_seen(std::uint64_t poll_id, PortId target);

  std::vector<Egress> egress_;
  std::vector<PauseSignal> pause_sig_;
  // queued_from_[egress][ingress] = data bytes in egress queue from ingress.
  std::vector<std::vector<std::int64_t>> queued_from_;
  telemetry::SwitchTelemetry telem_;
  std::unordered_set<std::uint64_t> seen_polls_;
  std::mt19937_64 ecn_rng_;
  std::int64_t drops_ = 0;
  std::int64_t ttl_drops_ = 0;
  // Last telemetry state-bytes value pushed into the gauge counter: each
  // poll pushes only the delta, so the registry's `telemetry.state_bytes`
  // counter always reads the fabric's current total.
  std::int64_t state_bytes_pushed_ = 0;
  // Interned stats cells: these counters are bumped per packet event, where
  // add_counter's string lookup (and SSO-overflowing key) is measurable.
  std::int64_t* drops_cell_ = nullptr;
  std::int64_t* ttl_drops_cell_ = nullptr;
  std::int64_t* pause_frames_cell_ = nullptr;
  std::int64_t* resume_frames_cell_ = nullptr;
  // Data-class backlog distribution, sampled per enqueue while
  // obs::metrics_enabled(); same interned-cell discipline as the counters.
  obs::Histogram* queue_depth_hist_ = nullptr;

  friend struct SwitchTestPeer;  ///< test-only corruption hook (invariant tests)
};

/// Test-only backdoor used by the invariant unit tests to deliberately
/// corrupt internal accounting and assert that audit_invariants() fires.
/// Never use outside tests.
struct SwitchTestPeer {
  static void corrupt_egress_bytes(Switch& sw, PortId port, Priority prio,
                                   std::int64_t delta) {
    sw.egress_.at(static_cast<std::size_t>(port)).bytes[index_of(prio)] += delta;
  }
  static void corrupt_ingress_bytes(Switch& sw, PortId port, std::int64_t delta) {
    sw.pause_sig_.at(static_cast<std::size_t>(port)).ingress_bytes += delta;
  }
};

}  // namespace vedr::net
