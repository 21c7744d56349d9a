#pragma once

#include <unordered_set>
#include <vector>

#include "core/diagnosis.h"
#include "core/intern.h"
#include "core/provenance_graph.h"

namespace vedr::core {

/// Anomaly breakdown (§III-D2): matches signatures over a finalized
/// provenance graph against the set of collective-communication flows and
/// emits typed findings. New anomaly types are added by extending this
/// classifier (the paper calls out this extensibility in §V).
///
/// The classifier walks the graph's dense-id rows — port cells in canonical
/// order, per-port waiter/flow id rows — so no composite key is hashed while
/// matching; keys are only materialized into the findings it emits.
class SignatureClassifier {
 public:
  /// Primary entry: cc membership pre-resolved to interned flow ids.
  /// Requires g.finalize() to have run (the id rows are finalize products).
  std::vector<AnomalyFinding> classify(const ProvenanceGraph& g, const FlowIdSet& cc_flows,
                                       int step = -1) const;

  /// Convenience overload for tests/tools holding a raw key set.
  std::vector<AnomalyFinding> classify(
      const ProvenanceGraph& g,
      const std::unordered_set<FlowKey, FlowKeyHash>& cc_flows, int step = -1) const;

 private:
  /// Walks the PFC spreading path from `start` to its terminal port,
  /// recording the chain. Cycles are reported as deadlocks.
  struct ChaseResult {
    std::vector<std::uint32_t> chain;  ///< port ids
    std::uint32_t terminal = 0;
    bool cycle = false;
  };
  ChaseResult chase(const ProvenanceGraph& g, std::uint32_t start) const;
};

}  // namespace vedr::core
