#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <variant>
#include <vector>

#include "collective/runner.h"
#include "common/tap.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "telemetry/records.h"

namespace vedr::core {

class Analyzer;

/// Per-domain staging buffer: the one path by which every system's
/// diagnosis-plane records reach the analyzer, at any domain count. It holds
/// everything a domain produces — step records and poll registrations from
/// its monitors, switch reports from its controllers, and, when a trace tap
/// is attached, the tap-only records: poll triggers and notifications from
/// the monitors, pause causes and TTL drops as every switch recorder's tap.
/// Each item is stamped with (domain-local time, arrival sequence). One
/// buffer per domain, written only by that domain's worker (no
/// synchronization needed).
///
/// replay_into() merges every buffer in (time, domain, seq) order and is the
/// only place that writes diagnosis-plane records to a trace: each analyzer
/// input goes to the tap just before the analyzer gets it, tap-only records
/// go to the tap alone. Within a domain that is exactly the live arrival
/// order, so a one-domain merge replays the run's stream unchanged;
/// cross-domain ties at equal time resolve by domain id — the parallel
/// lane's documented contract (DESIGN.md §14). The merged stream, and so a
/// recorded trace, is independent of worker count and thread scheduling.
class DomainIngestBuffer final : public telemetry::ReportSink, public telemetry::TelemetryTap {
 public:
  using Buffers = std::vector<std::unique_ptr<DomainIngestBuffer>>;
  /// Decides, in merged order, whether a switch report (with the time it
  /// reached its domain's sink) goes on to the tap and the analyzer.
  using Admit = std::function<bool(const telemetry::SwitchReport&, sim::Tick arrival)>;

  /// `tap` is the run's trace tap, or nullptr: tap-only records are staged
  /// only when there is a tap to forward them to.
  DomainIngestBuffer(sim::Simulator& sim, int domain, TraceTap* tap)
      : sim_(sim), domain_(domain), tap_(tap) {}

  /// The ingest wiring every system uses: one buffer per domain of `net`,
  /// each set as its domain's report sink and, when there is a tap, as the
  /// recorder tap of its domain's switches. Indexed by domain id.
  static Buffers install(net::Network& net, TraceTap* tap);

  void add_step_record(const collective::StepRecord& r) { stage(r); }
  void register_poll(const PollRegistration& r) { stage(r); }
  void on_switch_report(const telemetry::SwitchReport& report) override { stage(report); }

  void on_poll_trigger(const PollTriggerRecord& r) {
    if (tap_ != nullptr) stage(r);
  }
  void on_notification_sent(const NotificationRecord& r) {
    if (tap_ != nullptr) stage(r);
  }
  void on_pause_cause(const telemetry::PauseCauseRecord& r) override { stage(r); }
  void on_ttl_drop(const telemetry::TtlDropRecord& r) override { stage(r); }

  /// Merges every buffer's items into the tap and `analyzer` in (time,
  /// domain, seq) order, then clears the buffers. A switch report that
  /// `admit` (when set) rejects reaches neither. Main thread, with the
  /// engine's workers joined.
  static void replay_into(const Buffers& buffers, Analyzer& analyzer, const Admit& admit = {});

 private:
  using Payload = std::variant<collective::StepRecord, PollRegistration, telemetry::SwitchReport,
                               PollTriggerRecord, NotificationRecord, telemetry::PauseCauseRecord,
                               telemetry::TtlDropRecord>;
  struct Item {
    sim::Tick time = 0;
    std::uint64_t seq = 0;
    Payload payload;
  };

  template <class T>
  void stage(const T& r) {
    items_.push_back({sim_.now(), ++seq_, r});
  }

  sim::Simulator& sim_;
  int domain_;
  TraceTap* tap_;
  std::uint64_t seq_ = 0;
  std::vector<Item> items_;
};

}  // namespace vedr::core
