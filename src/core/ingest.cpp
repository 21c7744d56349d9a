#include "core/ingest.h"

#include <algorithm>

#include "core/analyzer.h"
#include "net/switch.h"

namespace vedr::core {

namespace {

/// Routes one merged item: each analyzer input to the tap and then the
/// analyzer, tap-only records to the tap.
struct Deliver {
  Analyzer& analyzer;
  TraceTap* tap;
  const DomainIngestBuffer::Admit& admit;
  sim::Tick time;

  void operator()(const collective::StepRecord& r) const {
    if (tap != nullptr) tap->on_step_record(r);
    analyzer.add_step_record(r);
  }
  void operator()(const PollRegistration& p) const {
    if (tap != nullptr) tap->on_poll_registered(p);
    analyzer.register_poll(p.poll_id, p.flow, p.step);
  }
  void operator()(const telemetry::SwitchReport& r) const {
    if (admit && !admit(r, time)) return;
    if (tap != nullptr) tap->on_switch_report_in(r);
    analyzer.on_switch_report(r);
  }
  void operator()(const PollTriggerRecord& r) const { tap->on_poll_trigger(r); }
  void operator()(const NotificationRecord& r) const { tap->on_notification_sent(r); }
  void operator()(const telemetry::PauseCauseRecord& r) const { tap->on_pause_cause(r); }
  void operator()(const telemetry::TtlDropRecord& r) const { tap->on_ttl_drop(r); }
};

}  // namespace

DomainIngestBuffer::Buffers DomainIngestBuffer::install(net::Network& net, TraceTap* tap) {
  Buffers buffers;
  buffers.reserve(static_cast<std::size_t>(net.num_domains()));
  for (int d = 0; d < net.num_domains(); ++d) {
    buffers.push_back(std::make_unique<DomainIngestBuffer>(net.domain_sim(d), d, tap));
    net.set_domain_report_sink(d, buffers.back().get());
  }
  // Pause causes and TTL drops exist only for the tap.
  if (tap != nullptr)
    for (const net::NodeId sw : net.switches())
      net.switch_at(sw).telem().set_tap(buffers[static_cast<std::size_t>(net.domain_of(sw))].get());
  return buffers;
}

void DomainIngestBuffer::replay_into(const Buffers& buffers, Analyzer& analyzer,
                                     const Admit& admit) {
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
  for (const Keyed& k : merged)
    std::visit(Deliver{analyzer, k.from->tap_, admit, k.time}, k.item->payload);
  for (const auto& b : buffers) b->items_.clear();
}

}  // namespace vedr::core
