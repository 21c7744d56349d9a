#include "eval/scenario.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "collective/plan.h"
#include "sim/rng.h"

namespace vedr::eval {

using net::FlowKey;
using net::PortRefHash;
using sim::Rng;

const char* to_string(ScenarioType t) {
  switch (t) {
    case ScenarioType::kFlowContention: return "FlowContention";
    case ScenarioType::kIncast: return "Incast";
    case ScenarioType::kPfcStorm: return "PfcStorm";
    case ScenarioType::kPfcBackpressure: return "PfcBackpressure";
  }
  return "?";
}

const char* cli_name(ScenarioType t) {
  switch (t) {
    case ScenarioType::kFlowContention: return "contention";
    case ScenarioType::kIncast: return "incast";
    case ScenarioType::kPfcStorm: return "storm";
    case ScenarioType::kPfcBackpressure: return "backpressure";
  }
  return "?";
}

std::optional<ScenarioType> parse_scenario(std::string_view name) {
  for (const ScenarioType t : {ScenarioType::kFlowContention, ScenarioType::kIncast,
                               ScenarioType::kPfcStorm, ScenarioType::kPfcBackpressure})
    if (name == cli_name(t)) return t;
  return std::nullopt;
}

int paper_case_count(ScenarioType t) {
  switch (t) {
    case ScenarioType::kFlowContention: return 60;
    case ScenarioType::kIncast: return 60;
    case ScenarioType::kPfcStorm: return 40;
    case ScenarioType::kPfcBackpressure: return 60;
  }
  return 0;
}

std::string ScenarioSpec::str() const {
  std::string s = std::string(to_string(type)) + "#" + std::to_string(case_id) + " cc={";
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(participants[i]);
  }
  s += "} bg_flows=" + std::to_string(bg_flows.size()) +
       " storms=" + std::to_string(storms.size());
  if (expected_root.valid()) s += " root=" + expected_root.str();
  return s;
}

namespace {

std::vector<NodeId> sample_participants(Rng& rng, const net::Topology& topo, int n) {
  std::vector<NodeId> hosts = topo.hosts();
  if (static_cast<int>(hosts.size()) < n) throw std::invalid_argument("not enough hosts");
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::size_t j = i + rng.index(hosts.size() - i);
    std::swap(hosts[i], hosts[j]);
  }
  hosts.resize(static_cast<std::size_t>(n));
  return hosts;
}

/// All switch-egress ports traversed by the collective's transfers.
std::unordered_set<PortRef, PortRefHash> cc_port_set(const collective::CollectivePlan& plan,
                                                     const net::Topology& topo,
                                                     const net::RoutingTable& routing) {
  std::unordered_set<PortRef, PortRefHash> ports;
  for (int f = 0; f < plan.num_flows(); ++f) {
    for (const auto& s : plan.steps_of_flow(f)) {
      for (const PortRef& hop : routing.port_path_of(topo, plan.key_for(f, s.step))) {
        if (!topo.is_host(hop.node)) ports.insert(hop);
      }
    }
  }
  return ports;
}

Tick scaled_time(Tick t, double scale) {
  return static_cast<Tick>(static_cast<double>(t) * scale);
}
std::int64_t scaled_bytes(std::int64_t b, double scale) {
  return std::max<std::int64_t>(static_cast<std::int64_t>(static_cast<double>(b) * scale), 65536);
}

// The paper's generation ranges (§IV-A), pre-scale.
constexpr int kCcParticipants = 8;
constexpr std::int64_t kCcStepBytes = 360LL * 1000 * 1000;  ///< paper: 360 MB per step

// Flow contention: 1-6 flows, 20 MB-1 GB, start 0-200 ms.
constexpr int kContentionMinFlows = 1, kContentionMaxFlows = 6;
constexpr std::int64_t kContentionMinBytes = 20LL * 1000 * 1000;
constexpr std::int64_t kContentionMaxBytes = 1000LL * 1000 * 1000;
constexpr Tick kContentionMaxStart = 200 * sim::kMillisecond;

// Incast: 3-8 flows, 20-200 MB, simultaneous start. Backpressure draws its
// incast's sizes from the same range.
constexpr int kIncastMinFlows = 3, kIncastMaxFlows = 8;
constexpr std::int64_t kIncastMinBytes = 20LL * 1000 * 1000;
constexpr std::int64_t kIncastMaxBytes = 200LL * 1000 * 1000;

// PFC storm: start 0-150 ms, duration 10-100 ms.
constexpr Tick kStormMaxStart = 150 * sim::kMillisecond;
constexpr Tick kStormMinDuration = 10 * sim::kMillisecond;
constexpr Tick kStormMaxDuration = 100 * sim::kMillisecond;

// PFC backpressure: incast-driven, 4-8 senders.
constexpr int kBackpressureMinSenders = 4, kBackpressureMaxSenders = 8;

/// Draws one case of `type` from `seed`. Empty when the draw cannot place
/// its anomaly: a backpressure case whose non-participant hosts all sit
/// under edge switches the collective never crosses.
std::optional<ScenarioSpec> draw_scenario(ScenarioType type, int case_id, std::uint64_t seed,
                                          const net::Topology& topo,
                                          const net::RoutingTable& routing,
                                          const ScenarioParams& params) {
  ScenarioSpec spec;
  spec.type = type;
  spec.case_id = case_id;
  spec.seed = seed;
  Rng rng(spec.seed);

  spec.participants = sample_participants(rng, topo, kCcParticipants);
  spec.cc_step_bytes = scaled_bytes(kCcStepBytes, params.scale);

  const auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather,
                                                     spec.participants, spec.cc_step_bytes);
  const auto cc_ports = cc_port_set(plan, topo, routing);
  const Tick step_ideal =
      sim::transmission_delay(spec.cc_step_bytes, 100.0 /* line rate, order of magnitude */);
  const Tick cc_ideal = step_ideal * plan.num_steps();

  const auto all_hosts = topo.hosts();
  std::unordered_set<NodeId> cc_hosts(spec.participants.begin(), spec.participants.end());

  // Per-step port sets with the step's approximate execution window, so a
  // short background flow is only accepted against a step it can actually
  // meet in time ("deliberately set to collide", §IV-A). Ring steps
  // serialize, so step s runs roughly in [s, s+1] ideal step times,
  // stretched up to 3x under the very contention we inject.
  struct StepPath {
    Tick lo, hi;
    std::vector<PortRef> ports;
  };
  std::vector<StepPath> step_paths;
  for (int f = 0; f < plan.num_flows(); ++f) {
    for (const auto& s : plan.steps_of_flow(f)) {
      StepPath sp;
      sp.lo = s.step * step_ideal;
      sp.hi = (s.step + 1) * step_ideal * 2 + step_ideal / 2;
      for (const PortRef& hop : routing.port_path_of(topo, plan.key_for(f, s.step)))
        if (!topo.is_host(hop.node)) sp.ports.push_back(hop);
      step_paths.push_back(std::move(sp));
    }
  }
  auto collides_in_time = [&](const FlowKey& key, Tick start, std::int64_t bytes) {
    const Tick dur = sim::transmission_delay(bytes, 100.0);
    const Tick lo = start;
    const Tick hi = start + dur + dur / 2;
    const auto hops = routing.port_path_of(topo, key);
    for (const StepPath& sp : step_paths) {
      if (hi < sp.lo || lo > sp.hi) continue;
      for (const PortRef& hop : hops)
        for (const PortRef& p : sp.ports)
          if (hop == p) return true;
    }
    return false;
  };

  Tick latest_anomaly_end = 0;

  switch (type) {
    case ScenarioType::kFlowContention: {
      const int n = static_cast<int>(
          rng.uniform_int(kContentionMinFlows, kContentionMaxFlows));
      for (int i = 0; i < n; ++i) {
        InjectedFlow f;
        f.bytes = scaled_bytes(static_cast<std::int64_t>(
                                   rng.uniform_int(kContentionMinBytes, kContentionMaxBytes)),
                               params.scale);
        f.start = scaled_time(rng.uniform_int(0, kContentionMaxStart), params.scale);
        // "Placed randomly but deliberately set to collide": rejection-sample
        // host pairs until the ECMP path crosses a collective step's port
        // during that step's execution window.
        // Background flows belong to other tenants: they never *originate*
        // at a collective host (sharing the sender NIC would be an intra-host
        // bottleneck, which is out of scope per §V), but may target one.
        bool placed = false;
        for (int attempt = 0; attempt < 400 && !placed; ++attempt) {
          const NodeId src = all_hosts[rng.index(all_hosts.size())];
          const NodeId dst = all_hosts[rng.index(all_hosts.size())];
          if (src == dst || cc_hosts.count(src) > 0) continue;
          const FlowKey key = anomaly::background_key(i, src, dst);
          if (collides_in_time(key, f.start, f.bytes)) {
            f.key = key;
            placed = true;
          }
        }
        if (!placed) {
          // Guaranteed collision fallback: target a collective host directly
          // and start inside the collective's execution.
          const NodeId victim = spec.participants[rng.index(spec.participants.size())];
          NodeId src = victim;
          while (src == victim || cc_hosts.count(src) > 0)
            src = all_hosts[rng.index(all_hosts.size())];
          f.key = anomaly::background_key(i, src, victim);
          f.start = std::min<Tick>(f.start, cc_ideal / 2);
        }
        latest_anomaly_end = std::max(latest_anomaly_end, f.start);
        spec.bg_flows.push_back(f);
      }
      break;
    }

    case ScenarioType::kIncast: {
      const int n = static_cast<int>(rng.uniform_int(kIncastMinFlows, kIncastMaxFlows));
      // All flows target the same node; to exercise the collective they
      // converge on one of its participants.
      const NodeId victim = spec.participants[rng.index(spec.participants.size())];
      const Tick start = rng.uniform_int(0, std::max<Tick>(1, cc_ideal));
      std::vector<NodeId> senders;
      for (NodeId h : all_hosts)
        if (h != victim) senders.push_back(h);
      for (std::size_t i = 0; i < senders.size(); ++i) {
        const std::size_t j = i + rng.index(senders.size() - i);
        std::swap(senders[i], senders[j]);
      }
      for (int i = 0; i < n && i < static_cast<int>(senders.size()); ++i) {
        InjectedFlow f;
        f.key = anomaly::background_key(i, senders[static_cast<std::size_t>(i)], victim);
        f.bytes = scaled_bytes(
            static_cast<std::int64_t>(rng.uniform_int(kIncastMinBytes, kIncastMaxBytes)),
            params.scale);
        f.start = start;  // simultaneous
        spec.bg_flows.push_back(f);
      }
      latest_anomaly_end = start;
      break;
    }

    case ScenarioType::kPfcStorm: {
      // Injection point: a switch port along the paths of (up to) 4
      // collective flows. The injected port is the downstream side of a
      // path link: its PAUSE frames halt the upstream egress the flow uses.
      // Candidates are drawn from steps whose execution window overlaps the
      // storm interval, so the storm actually halts in-flight traffic.
      StormSpec storm;
      storm.start = scaled_time(rng.uniform_int(0, kStormMaxStart), params.scale);
      storm.duration =
          scaled_time(rng.uniform_int(kStormMinDuration, kStormMaxDuration), params.scale);

      std::vector<PortRef> candidates;
      const int flows_considered = std::min(4, plan.num_flows());
      for (int f = 0; f < flows_considered; ++f) {
        for (const auto& s : plan.steps_of_flow(f)) {
          const Tick lo = s.step * step_ideal;
          const Tick hi = (s.step + 1) * step_ideal * 3;
          if (storm.start + storm.duration < lo || storm.start > hi) continue;
          const auto hops = routing.port_path_of(topo, plan.key_for(f, s.step));
          for (const PortRef& hop : hops) {
            // Only switch-to-switch links: the injected port's PAUSE frames
            // must halt a *switch* egress (a paused host NIC leaves nothing
            // upstream for PFC provenance to trace).
            if (topo.is_host(hop.node)) continue;
            const PortRef down = topo.peer(hop.node, hop.port);
            if (!topo.is_host(down.node)) candidates.push_back(down);
          }
        }
      }
      if (candidates.empty()) {
        // The storm landed after the collective likely finished; clamp it
        // into the collective's execution instead.
        storm.start = rng.uniform_int(0, std::max<Tick>(1, cc_ideal / 2));
        for (int f = 0; f < flows_considered; ++f) {
          const auto hops = routing.port_path_of(topo, plan.key_for(f, 0));
          for (const PortRef& hop : hops) {
            if (topo.is_host(hop.node)) continue;
            const PortRef down = topo.peer(hop.node, hop.port);
            if (!topo.is_host(down.node)) candidates.push_back(down);
          }
        }
      }
      if (candidates.empty()) throw std::logic_error("no storm candidates");
      storm.port = candidates[rng.index(candidates.size())];
      spec.storms.push_back(storm);
      spec.expected_root = storm.port;
      latest_anomaly_end = storm.start + storm.duration;
      break;
    }

    case ScenarioType::kPfcBackpressure: {
      // PFC originates OFF the collective paths: an incast into a
      // non-participant host whose edge switch sits on a collective path;
      // the resulting PAUSE cascade reaches the collective via multi-hop
      // propagation. Ground truth root: the victim's access port.
      NodeId victim = net::kInvalidNode;
      PortRef root;
      for (int attempt = 0; attempt < 400; ++attempt) {
        const NodeId v = all_hosts[rng.index(all_hosts.size())];
        if (cc_hosts.count(v) > 0) continue;
        const PortRef access = topo.peer(v, 0);  // (edge switch, port to v)
        bool edge_on_cc_path = false;
        for (const PortRef& p : cc_ports) {
          if (p.node == access.node) {
            edge_on_cc_path = true;
            break;
          }
        }
        if (edge_on_cc_path) {
          victim = v;
          root = access;
          break;
        }
      }
      if (victim == net::kInvalidNode) return std::nullopt;
      spec.expected_root = root;

      const int n =
          static_cast<int>(rng.uniform_int(kBackpressureMinSenders, kBackpressureMaxSenders));
      const Tick start = rng.uniform_int(0, std::max<Tick>(1, cc_ideal));
      // Remote senders so the incast descends through shared agg/core links.
      std::vector<NodeId> senders;
      const PortRef victim_edge = topo.peer(victim, 0);
      for (NodeId h : all_hosts) {
        if (h == victim) continue;
        if (topo.peer(h, 0).node == victim_edge.node) continue;  // same edge: too direct
        senders.push_back(h);
      }
      for (std::size_t i = 0; i < senders.size(); ++i) {
        const std::size_t j = i + rng.index(senders.size() - i);
        std::swap(senders[i], senders[j]);
      }
      for (int i = 0; i < n && i < static_cast<int>(senders.size()); ++i) {
        InjectedFlow f;
        f.key = anomaly::background_key(i, senders[static_cast<std::size_t>(i)], victim);
        f.bytes = scaled_bytes(
            static_cast<std::int64_t>(rng.uniform_int(kIncastMinBytes, kIncastMaxBytes)),
            params.scale);
        f.start = start;
        spec.bg_flows.push_back(f);
      }
      latest_anomaly_end = start;
      break;
    }
  }

  spec.horizon = latest_anomaly_end + 40 * std::max<Tick>(step_ideal * plan.num_steps(), 1) +
                 5 * sim::kMillisecond;
  return spec;
}

}  // namespace

ScenarioSpec make_scenario(ScenarioType type, int case_id, const net::Topology& topo,
                           const net::RoutingTable& routing, const ScenarioParams& params) {
  std::uint64_t seed =
      Rng::mix(static_cast<std::uint64_t>(type) + 0xBEEF, static_cast<std::uint64_t>(case_id));
  // A draw that cannot place its anomaly is redrawn whole from a sub-seed
  // derived from the case's own, so every id yields a case and an id whose
  // first draw succeeds keeps the spec it always had. On a k = 4 fabric a
  // backpressure draw misses about once in 175, so the bound is never the
  // limit there; it only stops a fabric where no draw can succeed.
  for (std::uint64_t redraw = 1; redraw <= 64; ++redraw) {
    if (std::optional<ScenarioSpec> spec = draw_scenario(type, case_id, seed, topo, routing, params))
      return *std::move(spec);
    seed = Rng::mix(seed, redraw);
  }
  throw std::logic_error("no backpressure victim found in 64 draws");
}

}  // namespace vedr::eval
