#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/types.h"

namespace vedr::collective {

using net::FlowKey;
using net::NodeId;
using net::Tick;

enum class OpType : std::uint8_t { kAllGather, kReduceScatter, kAllReduce, kBroadcast };
enum class Algorithm : std::uint8_t { kRing, kHalvingDoubling, kBinomialTree };

const char* to_string(OpType t);
const char* to_string(Algorithm a);

/// One step of one flow in the algorithm decomposition (§III-B): flow
/// `flow_index` (originating at `src`) transfers `bytes` of chunk
/// `chunk_id` to `dst`; its send may not begin before the transfer
/// (dep_flow, dep_step) has been received locally.
struct StepSpec {
  int flow_index = -1;  ///< which flow (index into plan participants)
  int step = -1;
  NodeId src = net::kInvalidNode;
  NodeId dst = net::kInvalidNode;
  std::int64_t bytes = 0;
  int chunk_id = -1;

  // Data dependency: this step's payload is (part of) the payload received
  // from flow dep_flow at step dep_step. -1 = no dependency (first step).
  int dep_flow = -1;
  int dep_step = -1;

  bool has_dependency() const { return dep_flow >= 0; }
};

/// The decomposed collective: every flow's steps, pre-computed before the
/// op executes (the paper predefines steps rather than inferring them).
class CollectivePlan {
 public:
  CollectivePlan(int collective_id, OpType op, Algorithm algo, std::vector<NodeId> participants,
                 std::vector<std::vector<StepSpec>> steps);

  /// Ring decomposition (Fig. 1a): P-1 steps for AllGather/ReduceScatter,
  /// 2(P-1) for AllReduce; flow i always targets the next host on the ring
  /// and each step forwards the chunk received in the previous one.
  static CollectivePlan ring(int collective_id, OpType op, std::vector<NodeId> participants,
                             std::int64_t bytes_per_step);

  /// Halving-and-Doubling decomposition (Fig. 1b): log2(P) steps with the
  /// partner distance doubling (AllGather) or halving (ReduceScatter) and
  /// per-step volume doubling/halving accordingly. P must be a power of two.
  static CollectivePlan halving_doubling(int collective_id, OpType op,
                                         std::vector<NodeId> participants,
                                         std::int64_t base_bytes);

  /// Binomial-tree Broadcast from participants[0]: round r has ranks
  /// < 2^r forwarding to rank + 2^r. Unlike Ring/H&D this is not a chain:
  /// one completed transfer unblocks *several* dependent flows, and a
  /// flow's dependency may be many rounds old — exercising the waiting
  /// graph's general form (§V "applies broadly across nearly all
  /// collective algorithms"). Leaf ranks contribute no flow (zero steps).
  static CollectivePlan tree_broadcast(int collective_id, std::vector<NodeId> participants,
                                       std::int64_t bytes);

  int collective_id() const { return collective_id_; }
  OpType op() const { return op_; }
  Algorithm algorithm() const { return algo_; }
  const std::vector<NodeId>& participants() const { return participants_; }
  int num_flows() const { return static_cast<int>(participants_.size()); }
  int num_steps() const { return num_steps_; }
  int total_transfers() const;

  const std::vector<StepSpec>& steps_of_flow(int flow_index) const {
    return steps_.at(static_cast<std::size_t>(flow_index));
  }
  const StepSpec& step(int flow_index, int step) const {
    return steps_.at(static_cast<std::size_t>(flow_index)).at(static_cast<std::size_t>(step));
  }

  /// 5-tuple for the transfer of (flow, step). The source port encodes the
  /// flow, the destination port the (collective, step), so switch telemetry
  /// keyed by 5-tuple maps back to waiting-graph vertices.
  FlowKey key_for(int flow_index, int step) const;

  /// Every transfer's 5-tuple: the collective flow set that telemetry
  /// membership tests run against. For lookups only — iterating it would
  /// leak hash order.
  std::unordered_set<FlowKey, net::FlowKeyHash> flow_keys() const;

  /// Reverse lookup from a telemetry 5-tuple; returns {-1,-1} if the key is
  /// not one of this plan's transfers.
  std::pair<int, int> locate(const FlowKey& key) const;
  bool contains(const FlowKey& key) const { return locate(key).first >= 0; }

  /// The flow whose next step waits on (flow, step) completing, or -1.
  /// Chain algorithms (Ring, H&D) have at most one; prefer dependents_of
  /// for algorithms where a transfer unblocks several flows.
  int waiter_of(int flow_index, int step) const;

  /// Every (flow, step) whose send depends on (flow_index, step) having
  /// been received — the recipients of notification packets (§III-C2).
  const std::vector<std::pair<int, int>>& dependents_of(int flow_index, int step) const;

  int flow_of_host(NodeId host) const;  ///< flow index originating at host, -1 if none

 private:
  int collective_id_;
  OpType op_;
  Algorithm algo_;
  std::vector<NodeId> participants_;
  std::vector<std::vector<StepSpec>> steps_;  // [flow][step]
  int num_steps_ = 0;
  // (dep_flow << 32 | dep_step) -> dependents
  std::unordered_map<std::uint64_t, std::vector<std::pair<int, int>>> dependents_;
};

}  // namespace vedr::collective
