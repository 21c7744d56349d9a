#pragma once

#include <memory>
#include <vector>

#include "net/congestion_control.h"
#include "net/device.h"
#include "net/dcqcn.h"
#include "net/packet_pool.h"
#include "net/routing.h"
#include "net/shard.h"
#include "net/topology.h"
#include "net/trace.h"
#include "net/types.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "telemetry/records.h"

namespace vedr::sim {
class ShardedEngine;
struct ShardReport;
}  // namespace vedr::sim

namespace vedr::net {

class Host;
class Switch;

/// The assembled fabric: devices wired per a Topology, a shared routing
/// table, link-level delivery, and the hooks the diagnosis plane uses
/// (stats registry, report sink).
///
/// The fabric is partitioned into the plan's domains (DESIGN.md §14); every
/// domain gets its own Simulator, stats registry, packet pool, tracer slot,
/// report sink, and delivery counter, resolved through sim::current_domain()
/// so device code is shard-oblivious. Deliveries whose endpoint lives in
/// another domain carry the packet by value through the HandoffMatrix and
/// are merged at window boundaries in (time, src domain, seq) order. The
/// serial lane is the one-domain plan (ShardPlan::single) on the one-domain
/// engine: every delivery is local and the run is one window.
///
/// Local deliveries and drained handoffs are plain typed events on the
/// receiving domain's queue, the latter scheduled in drain order.
class Network {
 public:
  /// `plan` must be built for `topo`, with num_domains matching
  /// engine.num_domains() and a lookahead no shorter than the engine's.
  /// Installs itself as the engine's drain hook.
  Network(sim::ShardedEngine& engine, const ShardPlan& plan, const Topology& topo,
          NetConfig cfg = {}, DcqcnParams dcqcn = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The calling context's simulator (per sim::current_domain()).
  sim::Simulator& sim() { return *ctxs_[ctx_index()]->sim; }
  const NetConfig& config() const { return cfg_; }
  const DcqcnParams& dcqcn_params() const { return dcqcn_; }
  const SwiftParams& swift_params() const { return swift_; }
  const Topology& topology() const { return topo_; }
  RoutingTable& routing() { return routing_; }
  const RoutingTable& routing() const { return routing_; }
  /// The calling context's stats registry (domain-local; call
  /// merge_domain_stats() after the run to collapse them for readers).
  sim::StatsRegistry& stats() { return *ctxs_[ctx_index()]->stats; }
  /// The calling context's in-flight packet storage (domain-local).
  PacketPool& pool() { return ctxs_[ctx_index()]->pool; }

  // --- sharding ------------------------------------------------------------

  int num_domains() const { return static_cast<int>(ctxs_.size()); }
  int domain_of(NodeId node) const { return plan_.domain_of[static_cast<std::size_t>(node)]; }
  /// The simulator that owns `node` — injectors schedule against this so a
  /// trigger fires on the domain that executes the device.
  sim::Simulator& sim_of(NodeId node) {
    return *ctxs_[static_cast<std::size_t>(domain_of(node))]->sim;
  }
  /// Domain d's simulator.
  sim::Simulator& domain_sim(int d) { return *ctxs_.at(static_cast<std::size_t>(d))->sim; }
  /// Registers a typed-event handler on every domain's simulator.
  /// Components that dispatch through typed events must use this instead of
  /// sim().set_handler so their events fire on any domain.
  void set_handler_all(sim::EventKind kind, sim::EventHandler fn);
  /// Folds every domain's registry into domain 0's (which the main thread
  /// reads through stats()). Call after the engine has joined its workers.
  void merge_domain_stats();
  /// Latest simulated time across domains (== sim().now() with one domain).
  /// Post-run scoring reads this: domain clocks stop at their own last
  /// event, so no single domain's now() bounds the whole run.
  Tick latest_now() const;
  /// Fills the handoff-lane section of a ShardReport (pushed / spills /
  /// ring peak per active (src,dst) pair). Engine sections are filled by
  /// ShardedEngine::fill_report. Quiesced (post-run) only.
  void fill_shard_report(sim::ShardReport& out) const;

  Host& host(NodeId id);
  Switch& switch_at(NodeId id);
  Device& device(NodeId id) { return *devices_.at(static_cast<std::size_t>(id)); }
  std::vector<NodeId> hosts() const { return topo_.hosts(); }
  std::vector<NodeId> switches() const { return topo_.switches(); }

  /// Where domain `domain`'s switch controllers send telemetry reports (its
  /// ingest buffer, see core::DomainIngestBuffer::install).
  void set_domain_report_sink(int domain, telemetry::ReportSink* sink) {
    ctxs_.at(static_cast<std::size_t>(domain))->sink = sink;
  }
  telemetry::ReportSink* report_sink() { return ctxs_[ctx_index()]->sink; }

  /// Optional per-domain packet tracer; nullptr (default) costs nothing.
  /// One tracer per domain, because each is written by its domain's worker.
  void set_domain_tracer(int domain, PacketTracer* tracer) {
    ctxs_.at(static_cast<std::size_t>(domain))->tracer = tracer;
  }
  PacketTracer* tracer() { return ctxs_[ctx_index()]->tracer; }

  /// Link-level delivery: schedules arrival of `pkt` at the peer of
  /// (from, out_port) after the link propagation delay. Serialization time
  /// is the sender's business and must already have elapsed.
  void deliver(NodeId from, PortId out_port, Packet pkt);

  /// Pooled delivery: same contract, but the packet already lives in the
  /// domain's pool and travels as a slot index — the steady-state path,
  /// with no Packet copy and no allocation. A cross-domain delivery moves
  /// the packet into the handoff matrix, frees the slot, and takes a slot
  /// in the receiver's pool at the next window boundary.
  void deliver_ref(NodeId from, PortId out_port, PacketRef ref);

  /// Frames handed to the link layer since construction (all types).
  std::uint64_t packets_delivered() const {
    std::uint64_t n = 0;
    for (const auto& c : ctxs_) n += c->packets_delivered;
    return n;
  }

  /// Out-of-band PFC frame on the reverse wire (never queued).
  void deliver_pfc(NodeId from, PortId out_port, Priority prio, bool pause);

  /// Link parameters of (node, port).
  const Topology::Port& port_info(NodeId node, PortId port) const {
    return topo_.port(node, port);
  }

  /// Base (unloaded) RTT in ns for a flow: per-hop serialization of one MTU
  /// plus propagation, both ways, with a control-size return.
  Tick base_rtt(const FlowKey& flow) const;

  /// Analytic completion time of `bytes` on an idle path (for expected-time
  /// baselines in Eq. (3) and FCT-based trigger spacing).
  Tick ideal_fct(const FlowKey& flow, std::int64_t bytes) const;

 private:
  /// Everything that must be domain-local so worker threads never share a
  /// mutable cell: the domain's simulator, registry, packet pool,
  /// observation hooks, the delivery counter, and drain scratch. Cache-line
  /// aligned so adjacent domains' counters don't false-share.
  struct alignas(64) DomainCtx {
    sim::Simulator* sim = nullptr;
    std::unique_ptr<sim::StatsRegistry> stats;
    PacketPool pool;
    telemetry::ReportSink* sink = nullptr;
    PacketTracer* tracer = nullptr;
    std::uint64_t packets_delivered = 0;
    std::vector<Handoff> scratch;  ///< boundary drain buffer, reused
  };

  std::size_t ctx_index() const { return static_cast<std::size_t>(sim::current_domain()); }
  void init_devices();
  /// Engine drain hook: merge inbound handoffs (sorted) into this domain's
  /// pool and queue.
  void drain_domain(int domain);

  NetConfig cfg_;
  DcqcnParams dcqcn_;
  SwiftParams swift_;
  Topology topo_;
  RoutingTable routing_;
  ShardPlan plan_;
  sim::ShardedEngine& engine_;
  std::vector<std::unique_ptr<DomainCtx>> ctxs_;
  std::unique_ptr<HandoffMatrix> handoffs_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace vedr::net
