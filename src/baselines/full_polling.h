#pragma once

#include <vector>

#include "collective/plan.h"
#include "core/analyzer.h"
#include "core/ingest.h"
#include "net/network.h"

namespace vedr::baselines {

/// Full-polling baseline: every switch reports every port's telemetry on a
/// fixed period, regardless of anomalies — the paper's overhead upper bound.
/// Reports are pushed autonomously (no polling-query packets), matching the
/// paper's note that detection overhead is excluded for this baseline. Each
/// domain sweeps its own switches, and each report takes the path of a poll
/// report (Switch::emit_report) into the domain's ingest buffer.
class FullPolling {
 public:
  static constexpr sim::Tick kInterval = 100 * sim::kMicrosecond;

  /// `trace` is an optional observation-only tap (see common/tap.h).
  FullPolling(net::Network& net, const collective::CollectivePlan& plan,
              core::TraceTap* trace = nullptr);

  /// Begins periodic reporting; stops after `until` (simulation time).
  void start(sim::Tick until);

  core::Diagnosis diagnose() { return analyzer().diagnose(); }
  core::Analyzer& analyzer();
  /// Sweep rounds run (every domain runs every round).
  std::size_t sweeps() const { return rounds_.front(); }

  // --- event-dispatch entry point (kPollSweep trampoline only) -------------

  void sweep(int domain);

 private:
  net::Network& net_;
  core::Analyzer analyzer_;
  core::DomainIngestBuffer::Buffers buffers_;
  std::vector<net::NodeId> switches_;
  std::vector<std::size_t> rounds_;  ///< per domain, written only by that domain
  sim::Tick until_ = 0;
};

}  // namespace vedr::baselines
