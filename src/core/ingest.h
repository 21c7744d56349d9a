#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "collective/runner.h"
#include "sim/simulator.h"
#include "telemetry/records.h"

namespace vedr::core {

class Analyzer;

/// The host-monitor half of the analyzer's ingestion surface: step records
/// and poll registrations. The Analyzer implements it directly (the
/// one-domain wiring); multi-domain runs interpose a DomainIngestBuffer so
/// monitors on worker threads never touch the single-threaded analyzer.
class IngestSink {
 public:
  virtual ~IngestSink() = default;
  virtual void add_step_record(const collective::StepRecord& r) = 0;
  virtual void register_poll(std::uint64_t poll_id, int flow, int step) = 0;
};

/// Per-domain staging buffer for everything a domain produces toward the
/// analyzer — step records, poll registrations, switch telemetry reports —
/// each stamped with (domain-local time, arrival sequence). One buffer per
/// domain, written only by that domain's worker (no synchronization needed);
/// after the engine joins, replay_into() merges every buffer in
/// (time, domain, seq) order, so the analyzer sees one deterministic stream
/// independent of worker count and thread scheduling.
///
/// The ordering mirrors the serial wiring closely enough for the diagnosis
/// to be scheduling-independent: within a domain the stream is exactly the
/// serial arrival order, and cross-domain ties at equal time resolve by
/// domain id — the parallel lane's documented contract (DESIGN.md §14).
class DomainIngestBuffer final : public IngestSink, public telemetry::ReportSink {
 public:
  DomainIngestBuffer(sim::Simulator& sim, int domain) : sim_(sim), domain_(domain) {}

  void add_step_record(const collective::StepRecord& r) override {
    items_.push_back({sim_.now(), ++seq_, r});
  }
  void register_poll(std::uint64_t poll_id, int flow, int step) override {
    items_.push_back({sim_.now(), ++seq_, PollReg{poll_id, flow, step}});
  }
  void on_switch_report(const telemetry::SwitchReport& report) override {
    items_.push_back({sim_.now(), ++seq_, report});
  }

  int domain() const { return domain_; }
  std::size_t size() const { return items_.size(); }

  /// Merges every buffer's items into `analyzer` in (time, domain, seq)
  /// order, then clears the buffers. Main thread, post-join only.
  static void replay_into(const std::vector<std::unique_ptr<DomainIngestBuffer>>& buffers,
                          Analyzer& analyzer);

 private:
  struct PollReg {
    std::uint64_t poll_id = 0;
    int flow = -1;
    int step = -1;
  };
  struct Item {
    sim::Tick time = 0;
    std::uint64_t seq = 0;
    std::variant<collective::StepRecord, PollReg, telemetry::SwitchReport> payload;
  };

  sim::Simulator& sim_;
  int domain_;
  std::uint64_t seq_ = 0;
  std::vector<Item> items_;
};

}  // namespace vedr::core
