#include "core/ingest.h"

#include <algorithm>

#include "core/analyzer.h"

namespace vedr::core {

namespace {

/// Routes one merged item: analyzer inputs to the analyzer, tap-only
/// records to the tap.
struct Deliver {
  Analyzer& analyzer;
  TraceTap* tap;

  void operator()(const collective::StepRecord& r) const { analyzer.add_step_record(r); }
  void operator()(const PollRegistration& p) const {
    analyzer.register_poll(p.poll_id, p.flow, p.step);
  }
  void operator()(const telemetry::SwitchReport& r) const { analyzer.on_switch_report(r); }
  void operator()(const PollTriggerRecord& r) const { tap->on_poll_trigger(r); }
  void operator()(const NotificationRecord& r) const { tap->on_notification_sent(r); }
  void operator()(const telemetry::PauseCauseRecord& r) const { tap->on_pause_cause(r); }
  void operator()(const telemetry::TtlDropRecord& r) const { tap->on_ttl_drop(r); }
};

}  // namespace

void DomainIngestBuffer::replay_into(
    const std::vector<std::unique_ptr<DomainIngestBuffer>>& buffers, Analyzer& analyzer) {
  struct Keyed {
    Tick time;
    std::uint64_t seq;
    const DomainIngestBuffer* from;
    const Item* item;
  };
  std::vector<Keyed> merged;
  std::size_t total = 0;
  for (const auto& b : buffers) total += b->items_.size();
  if (total == 0) return;
  merged.reserve(total);
  for (const auto& b : buffers)
    for (const Item& it : b->items_) merged.push_back({it.time, it.seq, b.get(), &it});
  std::sort(merged.begin(), merged.end(), [](const Keyed& a, const Keyed& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.from->domain_ != b.from->domain_) return a.from->domain_ < b.from->domain_;
    return a.seq < b.seq;
  });
  for (const Keyed& k : merged) std::visit(Deliver{analyzer, k.from->tap_}, k.item->payload);
  for (const auto& b : buffers) b->items_.clear();
}

}  // namespace vedr::core
