#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "collective/plan.h"
#include "collective/step_queues.h"
#include "net/network.h"

namespace vedr::collective {

/// Timeline of one transfer (flow, step) as observed by the host monitors:
/// exactly the fields §III-C1 says each host reports on step completion
/// (5-tuple, volume, start/end time, the source host it waited for).
struct StepRecord {
  net::FlowKey key;
  int flow_index = -1;
  int step = -1;
  std::int64_t bytes = 0;
  NodeId src = net::kInvalidNode;
  NodeId dst = net::kInvalidNode;
  NodeId wait_src = net::kInvalidNode;  ///< data-dependency source host (invalid if none)
  int dep_flow = -1;                    ///< data-dependency flow index (-1 if none)
  int dep_step = -1;
  Tick dep_ready_time = sim::kNever;    ///< when the required receive finished
  Tick prev_done_time = sim::kNever;    ///< when this flow's previous step finished
  Tick start_time = sim::kNever;        ///< send start
  Tick end_time = sim::kNever;          ///< last byte ACKed
  Tick expected_duration = 0;           ///< analytic idle-network duration
};

/// Executes a CollectivePlan on a Network: registers every expected receive,
/// gates each send step on (previous step done) AND (data dependency
/// received), and emits the per-step records the diagnosis plane consumes.
class CollectiveRunner {
 public:
  using StepStartFn = std::function<void(const StepRecord&)>;
  using StepDoneFn = std::function<void(const StepRecord&)>;
  using DoneFn = std::function<void(Tick)>;

  CollectiveRunner(net::Network& net, CollectivePlan plan);

  /// Begins the op at absolute time `at`. With one domain this schedules the
  /// kCollectiveStart event, which counts toward the run's events. With
  /// several domains the start registers receives and launches step 0 right
  /// away, so `at` must be the current time and the engine must not have
  /// started: the start touches hosts in every domain, and an event would
  /// fire mid-window on one domain while the others run.
  void start(Tick at = 0);

  void set_on_step_start(StepStartFn fn) { on_step_start_ = std::move(fn); }
  void set_on_step_complete(StepDoneFn fn) { on_step_complete_ = std::move(fn); }
  void set_on_finished(DoneFn fn) { on_finished_ = std::move(fn); }

  const CollectivePlan& plan() const { return plan_; }
  bool done() const {
    return completed_transfers_.load(std::memory_order_relaxed) == plan_.total_transfers();
  }
  Tick finish_time() const { return finish_time_; }
  Tick start_time() const { return start_time_; }

  /// All step records (indexed [flow][step]); end_time == kNever for
  /// transfers still in flight.
  const StepRecord& record(int flow, int step) const {
    return records_.at(static_cast<std::size_t>(flow)).at(static_cast<std::size_t>(step));
  }
  std::vector<StepRecord> completed_records() const;

  /// Live Table-I waiting state of a flow's host monitor.
  const StepQueues& queues(int flow) const {
    return queues_.at(static_cast<std::size_t>(flow));
  }

 private:
  /// kCollectiveStart dispatch: the scheduled start time arrived.
  static void on_start_event(const sim::EventPayload& p);
  /// Registers receives and launches step 0; each host's registration
  /// happens under its own domain's ShardScope.
  void on_start();
  void try_start_send(int flow, int step);
  void on_send_done(int flow, int step, Tick t);
  void on_recv_done(int flow, int step, Tick t);

  net::Network& net_;
  CollectivePlan plan_;
  std::vector<std::vector<StepRecord>> records_;
  std::vector<std::vector<bool>> recv_done_;
  std::vector<std::vector<bool>> send_started_;
  std::vector<StepQueues> queues_;
  StepStartFn on_step_start_;
  StepDoneFn on_step_complete_;
  DoneFn on_finished_;
  /// All other runner state is host-affine (a flow's records, gates, and
  /// queues are only touched from the domain owning the host that acts on
  /// them — asserted in try_start_send); this counter is the one cell every
  /// domain increments, so it alone is atomic. The unique thread whose
  /// increment reaches the total writes finish_time_ and fires on_finished_.
  std::atomic<int> completed_transfers_{0};
  Tick start_time_ = sim::kNever;
  Tick finish_time_ = sim::kNever;
};

}  // namespace vedr::collective
