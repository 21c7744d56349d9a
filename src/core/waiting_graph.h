#pragma once

#include <string>
#include <vector>

#include "collective/runner.h"
#include "common/dense_map.h"
#include "net/types.h"

namespace vedr::core {

using collective::StepRecord;
using net::Tick;

/// Vertex of the waiting graph: the start or end of step `step` of flow
/// `flow` (paper §III-B, F_iS_j).
struct WgVertex {
  int flow = -1;
  int step = -1;
  bool is_end = false;

  friend bool operator==(const WgVertex&, const WgVertex&) = default;
  std::string str() const {
    // Appended piece by piece: GCC 12 flags `"F" + std::to_string(flow)`
    // with a -Wrestrict false positive in Release builds.
    std::string s = "F";
    s += std::to_string(flow);
    s += 'S';
    s += std::to_string(step);
    s += is_end ? ".end" : ".start";
    return s;
  }
};

struct WgVertexHash {
  std::size_t operator()(const WgVertex& v) const {
    return static_cast<std::size_t>(((v.flow * 1009 + v.step) << 1) | (v.is_end ? 1 : 0));
  }
};

enum class WgEdgeType : std::uint8_t {
  kExecution,  ///< end(F,S) -> start(F,S): weight = step execution time
  kPrevStep,   ///< start(F,S) -> end(F,S-1): weight 0
  kDataDep,    ///< start(F,S) -> end(dep): weight 0
};

struct WgEdge {
  WgVertex from;
  WgVertex to;
  WgEdgeType type = WgEdgeType::kExecution;
  Tick weight = 0;
};

/// The waiting graph of one collective (§III-B, §III-D1): built from host
/// step records in completion order; supports in-degree-zero pruning and
/// critical-path extraction (the collective's performance bottleneck).
///
/// Orientation follows the paper: edges point from waiter to waited-for, so
/// the graph's source is the end of the final steps and its sink the start
/// of the first steps.
class WaitingGraph {
 public:
  /// Builds from completed step records (any order; sorted internally by
  /// completion time as the analyzer's queue would deliver them).
  static WaitingGraph build(const std::vector<StepRecord>& records);

  /// Rebuilds in place from a borrowed record vector, reusing the graph's
  /// internal buffers (record storage, edge list, vertex index) so repeated
  /// diagnoses of a warmed analyzer never copy-allocate the records.
  void rebuild(const std::vector<StepRecord>& records);

  const std::vector<WgEdge>& edges() const { return edges_; }
  std::size_t num_vertices() const { return 2 * records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Recursively removes vertices never waited for (in-degree zero),
  /// exactly the pruning the paper applies before display (Fig. 14a).
  /// Returns the surviving vertices.
  std::vector<WgVertex> pruned_vertices() const;

  /// The critical path as (flow, step) pairs ordered from the last-finishing
  /// step back to the earliest binding step, reversed to execution order.
  std::vector<std::pair<int, int>> critical_path() const;

  /// The flow whose execution occupies the critical path at `step`, or -1.
  int critical_flow_of_step(int step) const;

  /// End-to-end collective time (max end - min start).
  Tick total_time() const;

  /// Step record lookup (kNever-filled default when missing).
  const StepRecord* record_of(int flow, int step) const;

  /// Graphviz DOT rendering (used for the Fig. 14a case study).
  std::string to_dot() const;

  /// Structural invariant audit: every edge endpoint resolves through the
  /// record index, no self-loops, no negative weights. Runs automatically at
  /// build() time when the InvariantAuditor is enabled.
  void audit() const;

 private:
  std::vector<StepRecord> records_;
  common::DenseMap64 index_;  // (flow,step) -> records_ idx
  std::vector<WgEdge> edges_;
  std::vector<std::pair<int, int>> critical_path_;
  common::DenseMap64 visited_;  // critical-path cycle guard, cleared per walk

  static std::uint64_t key(int flow, int step) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow)) << 32) |
           static_cast<std::uint32_t>(step);
  }
  void compute_critical_path();
};

}  // namespace vedr::core
