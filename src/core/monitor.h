#pragma once

#include <cstdint>

#include "collective/plan.h"
#include "collective/runner.h"
#include "core/detection.h"
#include "core/ingest.h"
#include "net/network.h"
#include "net/packet.h"

namespace vedr::core {

/// Host-side detection agent (§III-C, Fig. 8): tracks the local flow's
/// steps, recomputes RTT thresholds per step from topology, enforces
/// budgeted + evenly-spaced detection triggers, transfers leftover budget
/// to the waiting host via notification packets on step completion, and
/// reports step performance records to the analyzer.
///
/// Everything the monitor reports — step records and poll registrations,
/// plus poll triggers and notifications for a trace tap — goes to its
/// host's domain staging buffer, which the Vedrfolnir facade merges into
/// the analyzer (DESIGN.md §14).
class Monitor {
 public:
  Monitor(net::Network& net, const collective::CollectivePlan& plan, DomainIngestBuffer& ingest,
          net::NodeId host, DetectionConfig cfg);

  /// Runner fan-in (wired by the Vedrfolnir facade).
  void on_step_start(const collective::StepRecord& r);
  void on_step_complete(const collective::StepRecord& r);
  /// NIC fan-in.
  void on_rtt_sample(const net::FlowKey& flow, Tick rtt, std::uint32_t seq);
  void on_control_packet(const net::Packet& pkt, Tick now);

  net::NodeId host() const { return host_; }
  int flow_index() const { return flow_index_; }
  int polls_sent() const { return polls_sent_; }
  int notifications_sent() const { return notifications_sent_; }
  int budget_received() const { return budget_received_; }
  int watchdog_polls() const { return watchdog_polls_; }
  const StepTrigger& trigger() const { return trigger_; }

  // --- event-dispatch entry point (kStepPoll trampoline only) --------------

  /// The armed stall watchdog fired; `generation` invalidates checks disarmed
  /// by step progress since arming.
  void watchdog_check(std::uint64_t generation);

 private:
  void trigger_poll(const net::FlowKey& key);
  void send_notification(const collective::StepRecord& r);
  void arm_watchdog();

  net::Network& net_;
  const collective::CollectivePlan& plan_;
  DomainIngestBuffer& ingest_;
  net::NodeId host_;
  int flow_index_ = -1;
  DetectionConfig cfg_;

  StepTrigger trigger_;
  int current_step_ = -1;
  net::FlowKey current_key_;
  int carried_budget_ = 0;  ///< transfers that arrived between steps
  std::uint64_t poll_seq_ = 0;
  int polls_sent_ = 0;
  int notifications_sent_ = 0;
  int budget_received_ = 0;

  // Stalled-flow watchdog state.
  Tick last_activity_ = sim::kNever;
  std::uint64_t watchdog_generation_ = 0;
  int watchdog_polls_this_step_ = 0;
  int watchdog_polls_ = 0;

  // Per-ACK RTT distribution (interned cell, fed while obs::metrics_enabled()).
  obs::Histogram* rtt_hist_ = nullptr;
};

}  // namespace vedr::core
