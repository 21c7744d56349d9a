#pragma once

#include <vector>

#include "collective/plan.h"

namespace vedr::collective {

enum class WaitState : std::uint8_t {
  kWaiting,     ///< Send Steps == Recv Steps: next send waits for the current receive
  kNonWaiting,  ///< Send Steps < Recv Steps: next send starts as soon as current completes
  kFinished,
};

/// Table I: the monitor's real-time waiting-status awareness. During
/// decomposition the targets of this host's send steps are enqueued into the
/// Send Step Queue (SSQ) and the data sources each send depends on into the
/// Receive Step Queue (RSQ); comparing the two live indices tells whether
/// the flow is blocked on the network (waiting) or on itself (non-waiting).
class StepQueues {
 public:
  /// Builds SSQ/RSQ for `flow_index` of `plan`.
  StepQueues(const CollectivePlan& plan, int flow_index) {
    for (const StepSpec& s : plan.steps_of_flow(flow_index)) {
      ssq_.push_back(s.dst);
      rsq_.push_back(s.has_dependency()
                         ? plan.participants()[static_cast<std::size_t>(s.dep_flow)]
                         : net::kInvalidNode);
    }
  }

  /// The local flow finished sending step `step`.
  void on_send_complete(int step) {
    if (step + 1 > send_idx_) send_idx_ = step + 1;
  }
  /// The receive unblocking send step `dep_of_step + 1` has completed
  /// (dep_of_step == -1 unblocks step 0, possible in tree algorithms).
  void on_recv_complete(int dep_of_step) {
    if (dep_of_step + 1 > recv_idx_) recv_idx_ = dep_of_step + 1;
  }

  int total_steps() const { return static_cast<int>(ssq_.size()); }

  /// Table I's index comparison: the next send step (index send_idx_) is
  /// blocked while its required receive (the send_idx_'th entry of the RSQ)
  /// has not completed, i.e. while the receive index still trails the send
  /// index ("Send Steps == Recv Steps" in the paper's counting).
  WaitState state() const {
    if (send_idx_ >= total_steps()) return WaitState::kFinished;
    const net::NodeId needed = rsq_[static_cast<std::size_t>(send_idx_)];
    if (needed == net::kInvalidNode) return WaitState::kNonWaiting;
    return recv_idx_ >= send_idx_ ? WaitState::kNonWaiting : WaitState::kWaiting;
  }

  /// Source host the next send step is waiting on (invalid when none).
  net::NodeId waiting_on() const {
    if (send_idx_ >= total_steps()) return net::kInvalidNode;
    if (state() != WaitState::kWaiting) return net::kInvalidNode;
    return rsq_[static_cast<std::size_t>(send_idx_)];
  }

  const std::vector<net::NodeId>& ssq() const { return ssq_; }
  const std::vector<net::NodeId>& rsq() const { return rsq_; }

 private:
  std::vector<net::NodeId> ssq_;  ///< per send step: target host
  std::vector<net::NodeId> rsq_;  ///< per send step: required data source (or invalid)
  int send_idx_ = 0;
  int recv_idx_ = -1;  ///< -1: nothing received yet (step 0 deps unsatisfied)
};

}  // namespace vedr::collective
