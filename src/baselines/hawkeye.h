#pragma once

#include <vector>

#include "collective/plan.h"
#include "core/analyzer.h"
#include "core/ingest.h"
#include "net/network.h"

namespace vedr::baselines {

using core::Analyzer;
using core::Diagnosis;
using net::Tick;

/// MaxR when true, MinR when false: which base RTT over the collective's
/// flows scales Hawkeye's one fixed threshold.
struct HawkeyeConfig {
  bool use_max_rtt = true;
};

/// Hawkeye baseline (SIGCOMM'25 [17]) as characterized in the Vedrfolnir
/// paper's evaluation:
///  - one *fixed* RTT threshold for all flows: kRttMultiplier times the
///    maximum (Hawkeye-MaxR) or minimum (Hawkeye-MinR) base RTT over the
///    collective's flows;
///  - per-ACK triggering with no step awareness or budget — detection fires
///    whenever a sample crosses the threshold (subject to a small
///    tractability gap, see kMinTriggerGap);
///  - the collector retains at most one report batch every kRetention,
///    discarding the rest — which can drop valid data (§IV-B).
/// Telemetry collection itself (path polls + PFC chase) is identical to
/// Vedrfolnir's, as the paper states Vedrfolnir follows Hawkeye here, and so
/// is the ingest wiring: switch reports reach the retention filter through
/// the domain buffers' merge, at any domain count.
class Hawkeye {
 public:
  static constexpr double kRttMultiplier = 1.2;
  /// 50 us in Hawkeye's source.
  static constexpr Tick kRetention = 50 * sim::kMicrosecond;
  /// Minimum gap between a host's consecutive triggers. Real Hawkeye
  /// triggers per ACK; a per-ACK poll storm at 100 Gbps is simulation-
  /// prohibitive and the paper's own observation is that everything inside
  /// 50 us is redundant anyway, so we space triggers at ACK granularity
  /// bounded below by this gap. Overhead is under- rather than
  /// over-estimated, making Vedrfolnir's savings conservative.
  static constexpr Tick kMinTriggerGap = 10 * sim::kMicrosecond;

  /// `trace` is an optional observation-only tap (see common/tap.h).
  Hawkeye(net::Network& net, const collective::CollectivePlan& plan, HawkeyeConfig cfg = {},
          core::TraceTap* trace = nullptr);

  Diagnosis diagnose() { return analyzer().diagnose(); }
  /// Merges what the domains staged, through the retention filter.
  Analyzer& analyzer();

  Tick threshold() const { return threshold_; }
  int polls_sent() const;
  /// These merge first, so they count every report staged so far.
  std::size_t reports_kept() {
    analyzer();
    return reports_kept_;
  }
  std::size_t reports_dropped() {
    analyzer();
    return reports_dropped_;
  }

 private:
  /// One participant's trigger state, written only by its host's domain.
  struct Trigger {
    Tick last = sim::kNever;
    std::uint64_t polls = 0;  ///< polls sent, and so the last poll's sequence
  };

  void on_rtt(net::NodeId host, Trigger& t, const net::FlowKey& flow, Tick rtt);
  /// The retention filter: admits at most one poll's batch per window.
  bool retain(const telemetry::SwitchReport& report, Tick arrival);

  net::Network& net_;
  Analyzer analyzer_;
  core::DomainIngestBuffer::Buffers buffers_;
  Tick threshold_ = 0;
  std::vector<Trigger> triggers_;  ///< one per participant, in plan order
  Tick last_kept_ = sim::kNever;
  std::uint64_t kept_poll_ = 0;
  std::size_t reports_kept_ = 0;
  std::size_t reports_dropped_ = 0;
};

}  // namespace vedr::baselines
