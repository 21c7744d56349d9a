#include "telemetry/recorder.h"

#include <algorithm>

#include "telemetry/exact_store.h"
#include "telemetry/sketch_store.h"

namespace vedr::telemetry {

namespace {

std::unique_ptr<TelemetryStore> make_store(const TelemetryParams& params) {
  if (params.backend == TelemetryBackend::kSketch)
    return std::make_unique<SketchStore>(params);
  return std::make_unique<ExactStore>();
}

}  // namespace

PortTelemetry::PortTelemetry(const TelemetryParams& params) : store_(make_store(params)) {}

void PortTelemetry::on_enqueue(const FlowKey& flow, std::int64_t bytes, Tick now) {
  store_->on_enqueue(flow, bytes, now);
  qdepth_pkts_ += 1;
  qdepth_bytes_ += bytes;
}

void PortTelemetry::on_dequeue(const FlowKey& flow, std::int64_t bytes) {
  store_->on_dequeue(flow, bytes);
  qdepth_pkts_ = std::max<std::int64_t>(0, qdepth_pkts_ - 1);
  qdepth_bytes_ = std::max<std::int64_t>(0, qdepth_bytes_ - bytes);
}

void PortTelemetry::on_pause(Tick now) {
  if (paused_) return;
  paused_ = true;
  paused_since_ = now;
  pause_events_.push_back(PauseEvent{now, sim::kNever});
}

void PortTelemetry::on_resume(Tick now) {
  if (!paused_) return;
  paused_ = false;
  accumulated_pause_ += now - paused_since_;
  if (!pause_events_.empty() && pause_events_.back().end == sim::kNever)
    pause_events_.back().end = now;
  paused_since_ = sim::kNever;
}

Tick PortTelemetry::total_pause_time(Tick now) const {
  return accumulated_pause_ + (paused_ ? now - paused_since_ : 0);
}

bool PortTelemetry::paused_within(Tick now, Tick window) const {
  if (paused_) return true;
  const Tick since = now - window;
  for (auto it = pause_events_.rbegin(); it != pause_events_.rend(); ++it) {
    if (it->end != sim::kNever && it->end >= since) return true;
    if (it->end != sim::kNever && it->end < since) break;
  }
  return false;
}

PortReport PortTelemetry::snapshot(PortRef self, Tick now, Tick since) const {
  PortReport r;
  r.port = self;
  r.poll_time = now;
  r.qdepth_bytes = qdepth_bytes_;
  r.qdepth_pkts = qdepth_pkts_;
  r.currently_paused = paused_;
  r.total_pause_time = total_pause_time(now);

  // Flows + waits come from the backend store; both return canonically
  // sorted (TelemetryStore contract), so nothing downstream ever sees
  // hash-iteration order.
  store_->fill_snapshot(r, now, since);

  for (const auto& ev : pause_events_) {
    const Tick end = ev.end == sim::kNever ? now : ev.end;
    if (end >= since) r.pauses.push_back(PauseEvent{ev.start, ev.end});
  }
  return r;
}

void PortTelemetry::prune(Tick now, Tick retention) {
  store_->prune(now, retention);
  // Pause events that ended before the cutoff fail every `end >= since`
  // filter with since at or after it (snapshot and paused_within alike);
  // accumulated_pause_ already folded them in. Events are start-ordered, so
  // dropping the closed prefix preserves the early-break scan order.
  const Tick cutoff = now - retention;
  std::size_t drop = 0;
  while (drop < pause_events_.size() && pause_events_[drop].end != sim::kNever &&
         pause_events_[drop].end < cutoff)
    ++drop;
  if (drop > 0)
    pause_events_.erase(pause_events_.begin(),
                        pause_events_.begin() + static_cast<std::ptrdiff_t>(drop));
}

std::int64_t PortTelemetry::state_bytes() const {
  return store_->state_bytes() +
         static_cast<std::int64_t>(pause_events_.size()) * WireCosts::kPauseEvent;
}

SwitchTelemetry::SwitchTelemetry(NodeId switch_id, int num_ports, const TelemetryParams& params)
    : switch_id_(switch_id), params_(params),
      meter_(static_cast<std::size_t>(num_ports),
             std::vector<std::int64_t>(static_cast<std::size_t>(num_ports), 0)) {
  ports_.reserve(static_cast<std::size_t>(num_ports));
  for (int p = 0; p < num_ports; ++p) ports_.emplace_back(params);
}

void SwitchTelemetry::record_ttl_drop(const FlowKey& flow, PortId egress, Tick now) {
  DropEntry& d = drops_[flow];
  d.flow = flow;
  d.port = PortRef{switch_id_, egress};
  d.count += 1;
  d.last_drop = now;
  if (tap_ != nullptr) tap_->on_ttl_drop({switch_id_, d});
}

std::vector<DropEntry> SwitchTelemetry::drops_since(Tick since) const {
  std::vector<DropEntry> out;
  for (const auto& [flow, d] : drops_)  // vedr-lint: allow(unordered-iter): sorted by flow before return below
    if (d.last_drop >= since) out.push_back(d);
  std::sort(out.begin(), out.end(),
            [](const DropEntry& a, const DropEntry& b) { return a.flow < b.flow; });
  return out;
}

std::vector<PauseCauseReport> SwitchTelemetry::causes_for(PortId ingress, Tick since) const {
  std::vector<PauseCauseReport> out;
  for (const auto& c : causes_) {
    if (c.ingress_port.port == ingress && c.time >= since) out.push_back(c);
  }
  return out;
}

PortReport SwitchTelemetry::port_snapshot(PortId egress, Tick now, Tick since) const {
  PortReport r = ports_.at(static_cast<std::size_t>(egress))
                     .snapshot(PortRef{switch_id_, egress}, now, since);
  for (PortId in = 0; in < static_cast<PortId>(meter_.size()); ++in) {
    const std::int64_t b =
        meter_[static_cast<std::size_t>(in)][static_cast<std::size_t>(egress)];
    if (b > 0 && in != egress) r.meters.push_back(MeterEntry{in, b});
  }
  return r;
}

void SwitchTelemetry::prune(Tick now, Tick retention) {
  for (auto& p : ports_) p.prune(now, retention);
}

std::int64_t SwitchTelemetry::state_bytes() const {
  std::int64_t total = 0;
  for (const auto& p : ports_) total += p.state_bytes();
  return total;
}

}  // namespace vedr::telemetry
