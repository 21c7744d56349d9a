#pragma once

#include <cstdint>

#include "net/types.h"
#include "telemetry/records.h"

// Forward-declared: runner.h sits above net/network.h, and this header is
// included from net — pulling runner.h in here would cycle the include graph.
namespace vedr::collective {
struct StepRecord;
}

/// Observation-only tap interfaces and the records they carry, merged into
/// one header so there is a single place that defines what
/// "observation-only" means: a tap must not perturb the simulation — no
/// event scheduling, no RNG draws, no mutation of observed objects. A
/// recorded run stays bit-identical to an unrecorded one. The records are
/// defined once here, below both the diagnosis plane (core) and the trace
/// codec (replay, which names them through aliases).

namespace vedr::telemetry {

/// A switch sent a PAUSE (informational; polls may never cover it).
struct PauseCauseRecord {
  net::NodeId switch_id = net::kInvalidNode;
  PauseCauseReport cause;
};

/// A TTL-expiry drop was recorded at a switch (informational).
struct TtlDropRecord {
  net::NodeId switch_id = net::kInvalidNode;
  DropEntry drop;
};

/// Tap for switch-local telemetry events that may never be carried by any
/// poll response: PAUSE causes and TTL-expiry drops are only reported when a
/// poll's window covers them, but a trace wants all of them.
class TelemetryTap {
 public:
  virtual ~TelemetryTap() = default;
  virtual void on_pause_cause(const PauseCauseRecord& r) = 0;
  virtual void on_ttl_drop(const TtlDropRecord& r) = 0;
};

}  // namespace vedr::telemetry

namespace vedr::core {

/// A poll id bound to (flow, step): Analyzer::register_poll's arguments.
struct PollRegistration {
  std::uint64_t poll_id = 0;
  std::int32_t flow = -1;
  std::int32_t step = -1;
};

/// A host monitor fired a detection trigger (budgeted, watchdog, or
/// baseline-threshold) and sent a poll packet (informational; replay does
/// not need it, offline tooling does).
struct PollTriggerRecord {
  net::Tick time = 0;
  net::NodeId host = net::kInvalidNode;
  net::FlowKey flow;
  std::uint64_t poll_id = 0;
  std::int32_t step = -1;
};

/// A host monitor transferred leftover detection budget downstream
/// (informational).
struct NotificationRecord {
  net::Tick time = 0;
  net::NodeId from = net::kInvalidNode;
  net::NodeId to = net::kInvalidNode;
  std::int32_t step = -1;
  std::int32_t budget = 0;
};

/// Tap over the diagnosis plane's complete input stream: everything the
/// Analyzer ingests (step records, poll registrations, switch reports) plus
/// the Monitor-side events that explain *why* reports exist (detection
/// triggers, budget notifications) and the switch-local telemetry events
/// inherited from TelemetryTap.
///
/// The replay subsystem's TraceWriter is the canonical implementation, and
/// core::DomainIngestBuffer's merge its one writer: each analyzer input goes
/// to the tap just before the analyzer gets it, so a fresh Analyzer fed the
/// recorded inputs in order reproduces the live Diagnosis exactly.
class TraceTap : public telemetry::TelemetryTap {
 public:
  /// Written by the merge just before Analyzer::add_step_record.
  virtual void on_step_record(const collective::StepRecord& r) = 0;
  /// Written by the merge just before Analyzer::register_poll.
  virtual void on_poll_registered(const PollRegistration& r) = 0;
  /// Written by the merge just before Analyzer::on_switch_report, after
  /// Hawkeye's retention filter, so replay sees exactly what the analyzer saw.
  virtual void on_switch_report_in(const telemetry::SwitchReport& report) = 0;
  virtual void on_poll_trigger(const PollTriggerRecord& r) = 0;
  virtual void on_notification_sent(const NotificationRecord& r) = 0;
};

}  // namespace vedr::core
