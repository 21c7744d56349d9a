#include "net/switch.h"

#include <algorithm>

#include "common/check.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/rng.h"

namespace vedr::net {

namespace {

/// Async-span id for a PFC pause episode on (switch, egress port).
std::uint64_t pfc_span_id(NodeId sw, PortId port) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sw)) << 32) |
         static_cast<std::uint32_t>(port);
}

}  // namespace

Switch::Switch(Network& net, NodeId id, int num_ports)
    : Device(net, id, false),
      egress_(static_cast<std::size_t>(num_ports)),
      pause_sig_(static_cast<std::size_t>(num_ports)),
      queued_from_(static_cast<std::size_t>(num_ports),
                   std::vector<std::int64_t>(static_cast<std::size_t>(num_ports), 0)),
      telem_(id, num_ports, net.config().telemetry),
      ecn_rng_(sim::Rng::mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)),
                             0xEC11ULL)) {
  const auto& cfg = net.config();
  drops_cell_ = net.stats().counter_cell("switch.drops");
  ttl_drops_cell_ = net.stats().counter_cell("switch.ttl_drops");
  pause_frames_cell_ = net.stats().counter_cell("pfc.pause_frames");
  resume_frames_cell_ = net.stats().counter_cell("pfc.resume_frames");
  queue_depth_hist_ = net.stats().hist_cell("switch.queue_depth_bytes");
  VEDR_CHECK_GT(num_ports, 0, "switch needs at least one port");
  VEDR_CHECK_GT(cfg.pfc_xoff_bytes, 0, "PFC XOFF threshold must be positive");
  VEDR_CHECK_LE(cfg.pfc_xon_bytes, cfg.pfc_xoff_bytes,
                "PFC hysteresis inverted: XON above XOFF would oscillate");
  VEDR_CHECK_GT(cfg.queue_cap_bytes, 0, "egress queue capacity must be positive");
  VEDR_CHECK_GE(cfg.pfc_xon_bytes, 0, "PFC XON threshold must be non-negative");
  // Kmin == Kmax is the idiom for "ECN off" (the marking ramp has zero
  // width); only an inverted pair is a configuration bug. Likewise an XOFF
  // above the queue cap is the "PFC off" idiom (taildrop-only switch), so no
  // headroom relation between the two is enforced here.
  VEDR_CHECK_LE(cfg.ecn_kmin_bytes, cfg.ecn_kmax_bytes, "ECN Kmin must not exceed Kmax");
}

void Switch::handle_rx_ref(PacketRef ref, PortId in_port) {
  switch (net_.pool().at(ref).type) {
    case PacketType::kPfcPause: {
      const Packet pkt = std::move(net_.pool().at(ref));
      net_.pool().release(ref);
      handle_pfc(pkt, in_port);
      return;
    }
    case PacketType::kPoll: {
      // Cold path: polls fan out into reports and chase frames, which
      // acquire pool slots — copy out rather than reason about aliasing.
      Packet pkt = std::move(net_.pool().at(ref));
      net_.pool().release(ref);
      handle_poll(std::move(pkt), in_port);
      return;
    }
    default:
      forward_ref(ref, in_port);
      return;
  }
}

void Switch::forward_ref(PacketRef ref, PortId in_port) {
  Packet& pkt = net_.pool().at(ref);
  const PortId out = net_.routing().select(id_, pkt.flow);
  if (pkt.ttl == 0) {
    ++ttl_drops_;
    *ttl_drops_cell_ += 1;
    // Any expiring packet with a flow identity is loop evidence — data may
    // never reach TTL death when the loop's links PFC-deadlock first, but
    // the (same-keyed) polls still spin and expire.
    if (pkt.flow.valid()) telem_.record_ttl_drop(pkt.flow, out, net_.sim().now());
    net_.pool().release(ref);
    return;
  }
  pkt.ttl -= 1;
  enqueue_ref(out, ref, in_port);
}

void Switch::enqueue_ref(PortId out, PacketRef ref, PortId in_port) {
  Egress& eg = egress_.at(static_cast<std::size_t>(out));
  // Mutation (ECN marking) happens through this reference; the accounting
  // below reads the fields cached after it.
  Packet& pkt = net_.pool().at(ref);
  const int pi = index_of(pkt.prio);
  VEDR_ASSERT(pkt.size > 0, "zero/negative-size packet enqueued at switch ", id_);

  if (eg.bytes[pi] + pkt.size > net_.config().queue_cap_bytes) {
    ++drops_;
    *drops_cell_ += 1;
    net_.pool().release(ref);
    return;
  }

  if (pkt.prio == Priority::kData) {
    // RED/ECN marking against the data-class backlog.
    const std::int64_t q = eg.bytes[index_of(Priority::kData)];
    const auto& cfg = net_.config();
    if (pkt.ecn_capable) {
      if (q >= cfg.ecn_kmax_bytes) {
        pkt.ecn_ce = true;
      } else if (q > cfg.ecn_kmin_bytes) {
        const double p = cfg.ecn_pmax * static_cast<double>(q - cfg.ecn_kmin_bytes) /
                         static_cast<double>(cfg.ecn_kmax_bytes - cfg.ecn_kmin_bytes);
        std::uniform_real_distribution<double> d(0.0, 1.0);
        if (d(ecn_rng_) < p) pkt.ecn_ce = true;
      }
    }
  }
  const std::int32_t size = pkt.size;
  const Priority prio = pkt.prio;
  const PacketType type = pkt.type;
  const FlowKey flow = pkt.flow;
  const std::uint32_t seq = pkt.seq;

  if (prio == Priority::kData) {
    telem_.port(out).on_enqueue(flow, size, net_.sim().now());
    if (in_port != kInvalidPort) {
      telem_.on_forward(in_port, out, size);
      queued_from_[static_cast<std::size_t>(out)][static_cast<std::size_t>(in_port)] += size;
      PauseSignal& sig = pause_sig_.at(static_cast<std::size_t>(in_port));
      sig.ingress_bytes += size;
      update_pause_signal(in_port);
    }
  }

  if (auto* t = net_.tracer())
    t->record(net::TraceEvent{net::TraceEvent::Kind::kSwitchEnqueue, net_.sim().now(), id_, out,
                              type, flow, seq, size});
  eg.bytes[pi] += size;
  if (prio == Priority::kData && obs::metrics_enabled()) queue_depth_hist_->add(eg.bytes[pi]);
  VEDR_CHECK_LE(eg.bytes[pi], net_.config().queue_cap_bytes,
                "egress queue exceeded its capacity at switch ", id_, " port ", out);
  eg.q[pi].push_back(Queued{ref, in_port});
  VEDR_AUDIT(audit_invariants());
  kick(out);
}

void Switch::kick(PortId out) {
  Egress& eg = egress_.at(static_cast<std::size_t>(out));
  if (eg.busy) return;

  int pi = -1;
  if (!eg.q[index_of(Priority::kControl)].empty()) {
    pi = index_of(Priority::kControl);
  } else if (!eg.paused_data && !eg.q[index_of(Priority::kData)].empty()) {
    pi = index_of(Priority::kData);
  }
  if (pi < 0) return;

  const Queued item = eg.q[pi].pop_front();
  const std::int32_t size = net_.pool().at(item.ref).size;
  const Priority prio = net_.pool().at(item.ref).prio;
  const PacketType type = net_.pool().at(item.ref).type;
  const FlowKey flow = net_.pool().at(item.ref).flow;
  const std::uint32_t seq = net_.pool().at(item.ref).seq;
  eg.bytes[pi] -= size;
  VEDR_CHECK_GE(eg.bytes[pi], 0, "egress byte accounting went negative at switch ", id_,
                " port ", out);

  if (prio == Priority::kData) {
    telem_.port(out).on_dequeue(flow, size);
    if (item.in_port != kInvalidPort) {
      std::int64_t& from =
          queued_from_[static_cast<std::size_t>(out)][static_cast<std::size_t>(item.in_port)];
      from -= size;
      VEDR_CHECK_GE(from, 0, "per-ingress attribution went negative at switch ", id_,
                    " egress ", out, " ingress ", item.in_port);
      PauseSignal& sig = pause_sig_.at(static_cast<std::size_t>(item.in_port));
      sig.ingress_bytes -= size;
      VEDR_CHECK_GE(sig.ingress_bytes, 0,
                    "PFC ingress byte accounting went negative at switch ", id_, " ingress ",
                    item.in_port);
      update_pause_signal(item.in_port);
    }
  }

  if (auto* t = net_.tracer())
    t->record(net::TraceEvent{net::TraceEvent::Kind::kSwitchDequeue, net_.sim().now(), id_, out,
                              type, flow, seq, size});
  eg.busy = true;
  const auto& link = net_.port_info(id_, out);
  const Tick tx = sim::transmission_delay(size, link.gbps);
  net_.sim().schedule_event_in(tx, sim::EventKind::kSwitchTxDone,
                               {this, item.ref, static_cast<std::uint64_t>(out)});
}

void Switch::on_tx_done_ref(PacketRef ref, PortId out) {
  net_.deliver_ref(id_, out, ref);
  finish_tx(out);
}

void Switch::audit_invariants() const {
  std::vector<std::int64_t> ingress_totals(egress_.size(), 0);
  for (std::size_t out = 0; out < egress_.size(); ++out) {
    const Egress& eg = egress_[out];
    for (int pi = 0; pi < kNumPriorities; ++pi) {
      std::int64_t queued = 0;
      for (std::size_t qi = 0; qi < eg.q[pi].size(); ++qi) {
        const Queued& item = eg.q[pi][qi];
        const Packet& pkt = net_.pool().at(item.ref);
        VEDR_CHECK_GT(pkt.size, 0, "queued packet with non-positive size at switch ", id_);
        queued += pkt.size;
        if (pkt.prio == Priority::kData && item.in_port != kInvalidPort)
          ingress_totals.at(static_cast<std::size_t>(item.in_port)) += pkt.size;
      }
      VEDR_CHECK_EQ(eg.bytes[pi], queued, "egress byte counter diverged from queued packets",
                    " at switch ", id_, " port ", out, " prio ", pi);
      VEDR_CHECK_GE(eg.bytes[pi], 0, "negative egress byte counter at switch ", id_);
      VEDR_CHECK_LE(eg.bytes[pi], net_.config().queue_cap_bytes,
                    "egress queue above capacity at switch ", id_, " port ", out);
    }
    for (std::size_t in = 0; in < queued_from_[out].size(); ++in) {
      VEDR_CHECK_GE(queued_from_[out][in], 0, "negative per-ingress attribution at switch ",
                    id_, " egress ", out, " ingress ", in);
    }
  }
  for (std::size_t in = 0; in < pause_sig_.size(); ++in) {
    const PauseSignal& sig = pause_sig_[in];
    VEDR_CHECK_GE(sig.ingress_bytes, 0, "negative PFC ingress counter at switch ", id_,
                  " ingress ", in);
    // The PFC counter must agree with the data packets actually queued that
    // arrived through this ingress — the accounting PFC decisions rest on.
    VEDR_CHECK_EQ(sig.ingress_bytes, ingress_totals[in],
                  "PFC ingress counter diverged from queued data at switch ", id_,
                  " ingress ", in);
    std::int64_t attributed = 0;
    for (std::size_t out = 0; out < queued_from_.size(); ++out)
      attributed += queued_from_[out][in];
    VEDR_CHECK_EQ(attributed, sig.ingress_bytes,
                  "queued_from rows diverged from PFC ingress counter at switch ", id_,
                  " ingress ", in);
    // A pause on the wire must be explained by congestion or injection.
    VEDR_CHECK(!sig.sent_pause || sig.congestion || sig.forced,
               "PAUSE asserted without congestion or injection at switch ", id_, " ingress ",
               in);
  }
}

void Switch::finish_tx(PortId out) {
  egress_.at(static_cast<std::size_t>(out)).busy = false;
  kick(out);
}

void Switch::update_pause_signal(PortId in_port) {
  PauseSignal& sig = pause_sig_.at(static_cast<std::size_t>(in_port));
  const auto& cfg = net_.config();
  if (sig.ingress_bytes >= cfg.pfc_xoff_bytes) {
    sig.congestion = true;
  } else if (sig.ingress_bytes <= cfg.pfc_xon_bytes) {
    sig.congestion = false;
  }
  // XOFF/XON legality after hysteresis resolution: at-or-above XOFF must be
  // congested, at-or-below XON must not (in between, the previous state holds).
  VEDR_ASSERT(sig.ingress_bytes < cfg.pfc_xoff_bytes || sig.congestion,
              "ingress above XOFF without a congestion signal at switch ", id_);
  VEDR_ASSERT(sig.ingress_bytes > cfg.pfc_xon_bytes || !sig.congestion,
              "ingress at/below XON still flagged congested at switch ", id_);
  const bool desired = sig.congestion || sig.forced;
  if (desired == sig.sent_pause) return;
  sig.sent_pause = desired;
  *(desired ? pause_frames_cell_ : resume_frames_cell_) += 1;
  VEDR_INSTANT("net", desired ? "pfc_xoff" : "pfc_xon", net_.sim().now(),
               static_cast<std::uint64_t>(sig.ingress_bytes));
  net_.deliver_pfc(id_, in_port, Priority::kData, desired);

  if (desired) {
    // Log why we paused: which local egress queues hold this ingress's bytes.
    telemetry::PauseCauseReport cause;
    cause.ingress_port = PortRef{id_, in_port};
    cause.time = net_.sim().now();
    cause.injected = sig.forced && !sig.congestion;
    for (PortId e = 0; e < num_ports(); ++e) {
      const std::int64_t b =
          queued_from_[static_cast<std::size_t>(e)][static_cast<std::size_t>(in_port)];
      if (b > 0) cause.contributions.emplace_back(e, b);
    }
    telem_.record_pause_cause(std::move(cause));
  }
}

void Switch::force_pause(PortId port, Tick duration) {
  PauseSignal& sig = pause_sig_.at(static_cast<std::size_t>(port));
  sig.forced = true;
  update_pause_signal(port);
  // update_pause_signal only logs on transition; make sure injected storms
  // are always visible to the chase path even if the port was already paused.
  if (sig.congestion) {
    telemetry::PauseCauseReport cause;
    cause.ingress_port = PortRef{id_, port};
    cause.time = net_.sim().now();
    cause.injected = true;
    telem_.record_pause_cause(std::move(cause));
  }
  net_.sim().schedule_event_in(duration, sim::EventKind::kPfcResume,
                               {this, 0, static_cast<std::uint64_t>(port)});
}

void Switch::on_forced_pause_expired(PortId port) {
  pause_sig_.at(static_cast<std::size_t>(port)).forced = false;
  update_pause_signal(port);
}

void Switch::handle_pfc(const Packet& pkt, PortId in_port) {
  const auto& info = std::get<PauseInfo>(pkt.meta);
  if (info.prio != Priority::kData) return;
  Egress& eg = egress_.at(static_cast<std::size_t>(in_port));
  const bool was = eg.paused_data;
  eg.paused_data = info.pause;
  if (obs::trace_enabled() && was != info.pause) {
    // One async span per pause episode of this egress port (receiver side:
    // the span covers the interval the port is actually forbidden to send).
    if (info.pause) {
      obs::async_begin("net", "pfc_pause", pfc_span_id(id_, in_port), net_.sim().now());
    } else {
      obs::async_end("net", "pfc_pause", pfc_span_id(id_, in_port), net_.sim().now());
    }
  }
  if (info.pause) {
    telem_.port(in_port).on_pause(net_.sim().now());
  } else {
    telem_.port(in_port).on_resume(net_.sim().now());
  }
  if (was && !info.pause) kick(in_port);
}

bool Switch::poll_seen(std::uint64_t poll_id, PortId target) {
  const std::uint64_t key =
      sim::Rng::mix(poll_id, static_cast<std::uint64_t>(static_cast<std::uint32_t>(target + 2)));
  return !seen_polls_.insert(key).second;
}

void Switch::handle_poll(Packet pkt, PortId in_port) {
  auto info = std::get<PollInfo>(pkt.meta);
  const Tick now = net_.sim().now();
  const Tick since = now - net_.config().telemetry_window;

  telemetry::SwitchReport report;
  report.switch_id = id_;
  report.poll_id = info.poll_id;
  report.time = now;

  if (!info.pfc_chase) {
    // Snapshot the egress this flow takes here, then keep the poll moving
    // toward the destination (control class rides through PFC pauses).
    // Revisits (possible under looped tables) are forwarded without
    // re-reporting, so a looping poll eventually expires by TTL — itself
    // loop evidence.
    if (!poll_seen(info.poll_id, kInvalidPort)) {
      const PortId out = net_.routing().select(id_, pkt.flow);
      report.ports.push_back(telem_.port_snapshot(out, now, since));
      report.drops = telem_.drops_since(since);
      maybe_chase(out, info);
      emit_report(std::move(report));
      telemetry_housekeeping(now);
    }
    forward_ref(net_.pool().acquire(std::move(pkt)), in_port);
    return;
  }

  // Chase poll: we are the switch whose PAUSE frames halted the sender of
  // this poll; in_port is the link we paused. Report why, then follow the
  // congestion further downstream.
  if (poll_seen(info.poll_id, in_port)) return;
  auto causes = telem_.causes_for(in_port, since);
  std::vector<PortId> next_hops;
  for (const auto& cause : causes) {
    for (const auto& [egress, bytes] : cause.contributions) {
      (void)bytes;
      if (std::find(next_hops.begin(), next_hops.end(), egress) == next_hops.end())
        next_hops.push_back(egress);
    }
  }
  for (PortId e : next_hops) report.ports.push_back(telem_.port_snapshot(e, now, since));
  report.causes = std::move(causes);
  emit_report(std::move(report));
  telemetry_housekeeping(now);

  if (info.pfc_hops_left > 0) {
    PollInfo next = info;
    next.pfc_hops_left -= 1;
    for (PortId e : next_hops) maybe_chase(e, next);
  }
}

void Switch::telemetry_housekeeping(Tick now) {
  // Poll-time bookkeeping for the collection plane itself. Pruning only
  // drops state no future windowed snapshot can observe (retention is far
  // above any poll window), so every report byte is digest-identical with
  // or without it. The gauge push is delta-based: the registry's
  // `telemetry.state_bytes` counter always reads the fabric-wide current
  // footprint, and it is never mixed into determinism digests.
  telem_.prune(now, net_.config().telemetry_retention);
  const std::int64_t state = telem_.state_bytes();
  if (state != state_bytes_pushed_) {
    net_.stats().add_counter("telemetry.state_bytes", state - state_bytes_pushed_);
    state_bytes_pushed_ = state;
  }
}

void Switch::maybe_chase(PortId egress, const PollInfo& info) {
  if (info.pfc_hops_left <= 0) return;
  const Tick now = net_.sim().now();
  if (!telem_.port(egress).paused_within(now, net_.config().telemetry_window)) return;
  const PortRef peer = net_.topology().peer(id_, egress);
  if (net_.topology().is_host(peer.node)) return;  // hosts do not send PFC here

  Packet chase;
  chase.type = PacketType::kPoll;
  chase.prio = Priority::kControl;
  chase.size = net_.config().control_pkt_bytes;
  chase.sent_time = now;
  PollInfo ci = info;
  ci.pfc_chase = true;
  ci.target_port = peer.port;
  ci.pfc_hops_left = info.pfc_hops_left - 1;
  chase.meta = ci;

  net_.stats().add_counter("overhead.poll_bytes", net_.config().control_pkt_bytes);
  net_.stats().add_counter("overhead.bandwidth_bytes", net_.config().control_pkt_bytes);
  // PFC chase frames ride the wire out-of-band like PFC itself.
  net_.deliver(id_, egress, std::move(chase));
}

void Switch::emit_report(telemetry::SwitchReport report) {
  if (net_.report_sink() == nullptr) return;
  report.backend = telem_.backend();
  const std::int64_t size = report.wire_size();
  net_.stats().add_counter("overhead.telemetry_bytes", size);
  net_.stats().add_counter("overhead.bandwidth_bytes", size);
  net_.stats().add_counter("overhead.report_count");
  net_.sim().schedule_in(net_.config().controller_delay, [this, r = std::move(report)] {
    net_.report_sink()->on_switch_report(r);
  });
}

}  // namespace vedr::net
