#include "collective/plan.h"

#include <bit>
#include <stdexcept>

namespace vedr::collective {

const char* to_string(OpType t) {
  switch (t) {
    case OpType::kAllGather: return "AllGather";
    case OpType::kReduceScatter: return "ReduceScatter";
    case OpType::kAllReduce: return "AllReduce";
    case OpType::kBroadcast: return "Broadcast";
  }
  return "?";
}

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kRing: return "Ring";
    case Algorithm::kHalvingDoubling: return "HalvingDoubling";
    case Algorithm::kBinomialTree: return "BinomialTree";
  }
  return "?";
}

namespace {
constexpr std::uint16_t kSportBase = 9000;
constexpr std::uint16_t kDportBase = 1000;
constexpr int kMaxSteps = 256;
}  // namespace

CollectivePlan::CollectivePlan(int collective_id, OpType op, Algorithm algo,
                               std::vector<NodeId> participants,
                               std::vector<std::vector<StepSpec>> steps)
    : collective_id_(collective_id),
      op_(op),
      algo_(algo),
      participants_(std::move(participants)),
      steps_(std::move(steps)) {
  for (const auto& flow_steps : steps_)
    num_steps_ = std::max(num_steps_, static_cast<int>(flow_steps.size()));
  if (num_steps_ > kMaxSteps) throw std::invalid_argument("too many steps for port encoding");
  for (const auto& flow_steps : steps_) {
    for (const StepSpec& s : flow_steps) {
      if (!s.has_dependency()) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.dep_flow)) << 32) |
          static_cast<std::uint32_t>(s.dep_step);
      dependents_[key].emplace_back(s.flow_index, s.step);
    }
  }
}

int CollectivePlan::total_transfers() const {
  int n = 0;
  for (const auto& s : steps_) n += static_cast<int>(s.size());
  return n;
}

CollectivePlan CollectivePlan::ring(int collective_id, OpType op,
                                    std::vector<NodeId> participants,
                                    std::int64_t bytes_per_step) {
  const int p = static_cast<int>(participants.size());
  if (p < 2) throw std::invalid_argument("ring needs >= 2 participants");
  const int phase_steps = p - 1;
  const int total_steps = (op == OpType::kAllReduce) ? 2 * phase_steps : phase_steps;

  std::vector<std::vector<StepSpec>> steps(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    for (int s = 0; s < total_steps; ++s) {
      StepSpec spec;
      spec.flow_index = i;
      spec.step = s;
      spec.src = participants[static_cast<std::size_t>(i)];
      spec.dst = participants[static_cast<std::size_t>((i + 1) % p)];
      spec.bytes = bytes_per_step;
      // A pure AllGather (and the reduce-scatter phase) moves chunk
      // (i - s) mod p; AllReduce's gather phase starts from the fully
      // reduced chunk (i + 1) mod p each host ends reduce-scatter with,
      // hence (i - s' + 1) mod p.
      const bool ar_gather = op == OpType::kAllReduce && s >= phase_steps;
      const int sp = ar_gather ? s - phase_steps : s;
      spec.chunk_id = ar_gather ? (((i - sp + 1) % p) + p) % p : (((i - sp) % p) + p) % p;
      if (s > 0) {
        spec.dep_flow = (i - 1 + p) % p;
        spec.dep_step = s - 1;
      }
      steps[static_cast<std::size_t>(i)].push_back(spec);
    }
  }
  return CollectivePlan(collective_id, op, Algorithm::kRing, std::move(participants),
                        std::move(steps));
}

CollectivePlan CollectivePlan::halving_doubling(int collective_id, OpType op,
                                                std::vector<NodeId> participants,
                                                std::int64_t base_bytes) {
  const int p = static_cast<int>(participants.size());
  if (p < 2 || !std::has_single_bit(static_cast<unsigned>(p)))
    throw std::invalid_argument("halving-doubling needs a power-of-two participant count");
  const int levels = std::bit_width(static_cast<unsigned>(p)) - 1;
  const int total_steps = (op == OpType::kAllReduce) ? 2 * levels : levels;

  auto gather_partner = [](int i, int s) { return i ^ (1 << s); };
  auto scatter_partner = [levels](int i, int s) { return i ^ (1 << (levels - 1 - s)); };

  std::vector<std::vector<StepSpec>> steps(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    for (int s = 0; s < total_steps; ++s) {
      StepSpec spec;
      spec.flow_index = i;
      spec.step = s;
      spec.src = participants[static_cast<std::size_t>(i)];

      int partner = 0;
      if (op == OpType::kAllGather) {
        partner = gather_partner(i, s);
        spec.bytes = base_bytes << s;
        spec.chunk_id = (i >> s) << s;
        if (s > 0) {
          spec.dep_flow = gather_partner(i, s - 1);
          spec.dep_step = s - 1;
        }
      } else if (op == OpType::kReduceScatter) {
        partner = scatter_partner(i, s);
        spec.bytes = base_bytes << (levels - 1 - s);
        spec.chunk_id = (partner >> (levels - 1 - s)) << (levels - 1 - s);
        if (s > 0) {
          spec.dep_flow = scatter_partner(i, s - 1);
          spec.dep_step = s - 1;
        }
      } else {  // AllReduce: reduce-scatter phase then all-gather phase
        if (s < levels) {
          partner = scatter_partner(i, s);
          spec.bytes = base_bytes << (levels - 1 - s);
          spec.chunk_id = (partner >> (levels - 1 - s)) << (levels - 1 - s);
          if (s > 0) {
            spec.dep_flow = scatter_partner(i, s - 1);
            spec.dep_step = s - 1;
          }
        } else {
          const int sg = s - levels;
          partner = gather_partner(i, sg);
          spec.bytes = base_bytes << sg;
          spec.chunk_id = (i >> sg) << sg;
          spec.dep_flow = sg == 0 ? scatter_partner(i, levels - 1) : gather_partner(i, sg - 1);
          spec.dep_step = s - 1;
        }
      }
      spec.dst = participants[static_cast<std::size_t>(partner)];
      steps[static_cast<std::size_t>(i)].push_back(spec);
    }
  }
  return CollectivePlan(collective_id, op, Algorithm::kHalvingDoubling, std::move(participants),
                        std::move(steps));
}

CollectivePlan CollectivePlan::tree_broadcast(int collective_id,
                                              std::vector<NodeId> participants,
                                              std::int64_t bytes) {
  const int p = static_cast<int>(participants.size());
  if (p < 2) throw std::invalid_argument("broadcast needs >= 2 participants");

  // Rank i != 0 receives from parent i - 2^floor(log2 i) in round
  // floor(log2 i); rank i sends to i + 2^r for every round r with
  // 2^r > i (or r such that i < 2^r) and i + 2^r < p.
  auto recv_round = [](int rank) {
    int r = 0;
    while ((1 << (r + 1)) <= rank) ++r;
    return r;
  };
  auto parent_of = [&](int rank) { return rank - (1 << recv_round(rank)); };

  // Per-flow dense step indices: flow i's k-th send. Map (rank, round) of a
  // send to its local step index so dependencies can be wired.
  std::vector<std::vector<std::pair<int, int>>> sends(static_cast<std::size_t>(p));
  int rounds = 0;
  while ((1 << rounds) < p) ++rounds;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < p && i < (1 << r); ++i) {
      const int dst = i + (1 << r);
      if (dst < p) sends[static_cast<std::size_t>(i)].emplace_back(r, dst);
    }
  }
  auto local_step_of_round = [&](int rank, int round) {
    const auto& list = sends[static_cast<std::size_t>(rank)];
    for (std::size_t k = 0; k < list.size(); ++k)
      if (list[k].first == round) return static_cast<int>(k);
    return -1;
  };

  std::vector<std::vector<StepSpec>> steps(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    const auto& list = sends[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < list.size(); ++k) {
      const auto& [round, dst] = list[k];
      StepSpec spec;
      spec.flow_index = i;
      spec.step = static_cast<int>(k);
      spec.src = participants[static_cast<std::size_t>(i)];
      spec.dst = participants[static_cast<std::size_t>(dst)];
      spec.bytes = bytes;
      spec.chunk_id = round;  // broadcast forwards one payload; record round
      if (i != 0) {
        // Every send of a non-root forwards the payload received from the
        // parent — possibly many rounds earlier.
        spec.dep_flow = parent_of(i);
        spec.dep_step = local_step_of_round(parent_of(i), recv_round(i));
      }
      steps[static_cast<std::size_t>(i)].push_back(spec);
    }
  }
  return CollectivePlan(collective_id, OpType::kBroadcast, Algorithm::kBinomialTree,
                        std::move(participants), std::move(steps));
}

FlowKey CollectivePlan::key_for(int flow_index, int step) const {
  const StepSpec& s = this->step(flow_index, step);
  FlowKey k;
  k.src = s.src;
  k.dst = s.dst;
  k.sport = static_cast<std::uint16_t>(kSportBase + flow_index);
  k.dport = static_cast<std::uint16_t>(kDportBase + collective_id_ * kMaxSteps + step);
  return k;
}

std::unordered_set<FlowKey, net::FlowKeyHash> CollectivePlan::flow_keys() const {
  std::unordered_set<FlowKey, net::FlowKeyHash> keys;
  for (int f = 0; f < num_flows(); ++f)
    for (const StepSpec& s : steps_of_flow(f)) keys.insert(key_for(f, s.step));
  return keys;
}

std::pair<int, int> CollectivePlan::locate(const FlowKey& key) const {
  if (key.sport < kSportBase || key.dport < kDportBase) return {-1, -1};
  const int flow = key.sport - kSportBase;
  const int encoded = key.dport - kDportBase;
  if (encoded / kMaxSteps != collective_id_) return {-1, -1};
  const int step = encoded % kMaxSteps;
  if (flow >= num_flows()) return {-1, -1};
  const auto& fs = steps_.at(static_cast<std::size_t>(flow));
  if (step >= static_cast<int>(fs.size())) return {-1, -1};
  const StepSpec& spec = fs[static_cast<std::size_t>(step)];
  if (spec.src != key.src || spec.dst != key.dst) return {-1, -1};
  return {flow, step};
}

int CollectivePlan::waiter_of(int flow_index, int step) const {
  const auto& deps = dependents_of(flow_index, step);
  return deps.empty() ? -1 : deps.front().first;
}

const std::vector<std::pair<int, int>>& CollectivePlan::dependents_of(int flow_index,
                                                                      int step) const {
  static const std::vector<std::pair<int, int>> kEmpty;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow_index)) << 32) |
      static_cast<std::uint32_t>(step);
  auto it = dependents_.find(key);
  return it == dependents_.end() ? kEmpty : it->second;
}

int CollectivePlan::flow_of_host(NodeId host) const {
  for (int i = 0; i < num_flows(); ++i)
    if (participants_[static_cast<std::size_t>(i)] == host) return i;
  return -1;
}

}  // namespace vedr::collective
